"""What the benchmark measures: workloads, metrics, their units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 perfbench/run.py --all``, so the file and the code cannot drift.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: Seconds of timed iterations per run.  An iteration takes 6 to 11 s, so
#: a run holds three to five of them and reports their median.  With the
#: seven set-ups and the host-speed probes a run takes about 39 s, which
#: keeps the 70 runs of a full evaluation (4 + 22 per workload) inside its
#: 3420 s budget with some margin for a slowed-down host.
RUN_SECONDS = 36

#: A round figure in the range of the host-speed probe's time
#: (hostspeed.probe) on the reference box.  Every reported time is scaled by
#: this over the median probe of its run, so it only sets the unit: scaled
#: seconds read as seconds on that box at one fixed speed.
PROBE_REF_S = 0.04

WORKLOADS = [
    ("recon-sweep",
     "stability-curve at 4 noise levels on the 64^3 lattice: chord slices "
     "(spectral, fields) through parallel_map on numpy-bound items"),
    ("dtn-family",
     "dtn at its defaults: 48 leapfrog solves (30 distinct) with per-step and "
     "per-boundary-node conformal evaluation; no spectral or geometry"),
    ("rays-beams",
     "forward, beam residual sweep and a 32-ray conformal sinogram: "
     "GIL-bound RK4 and path quadrature in geometry, xray and beams"),
]

# (name, unit, better, bound).  ops_failed_frac is not listed: it is 0 on
# a correct run, so it is carried by the result's attempted/failed counts
# and printed alongside these.
END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better).  Every *_s entry is self CPU time (a span's thread
# CPU time minus that of its children on the same thread), except
# parallel.map_s, which is the maps' wall time, and host.probe_s, the
# median host-speed probe of the run.  Counts are totals per traced
# iteration.  These times are not scaled: read them against host.probe_s.
PER_LAYER = [
    ("fields.eval_s", "s", "lower"),
    ("fields.eval_calls", "count", "lower"),
    ("fields.points", "count", "lower"),
    ("spectral.slice_s", "s", "lower"),
    ("spectral.slices", "count", "lower"),
    ("spectral.sample_s", "s", "lower"),
    ("spectral.fft_s", "s", "lower"),
    ("spectral.fft_points", "count", "lower"),
    ("reconstruct.fill_s", "s", "lower"),
    ("reconstruct.lattice_points", "count", "higher"),
    ("reconstruct.points_per_slice", "ratio", "higher"),
    ("reconstruct.invert_s", "s", "lower"),
    ("reconstruct.inversions", "count", "lower"),
    ("reconstruct.n_modes", "count", "higher"),
    ("parallel.map_s", "s", "lower"),
    ("parallel.items", "count", "lower"),
    ("parallel.workers", "count", "higher"),
    ("parallel.concurrency", "ratio", "higher"),
    ("geometry.trace_s", "s", "lower"),
    ("geometry.exit_time_s", "s", "lower"),
    ("geometry.rays_traced", "count", "lower"),
    ("geometry.path_samples", "count", "lower"),
    ("xray.quadrature_s", "s", "lower"),
    ("xray.rays", "count", "lower"),
    ("conformal.eval_s", "s", "lower"),
    ("conformal.eval_calls", "count", "lower"),
    ("conformal.points", "count", "lower"),
    ("wavesim.solve_s", "s", "lower"),
    ("wavesim.solves", "count", "lower"),
    ("wavesim.steps", "count", "lower"),
    ("wavesim.distinct_solve_ratio", "ratio", "higher"),
    ("wavesim.solution_bytes", "bytes", "lower"),
    ("wavesim.trace_s", "s", "lower"),
    ("wavesim.norm_s", "s", "lower"),
    ("beams.build_s", "s", "lower"),
    ("beams.steps", "count", "lower"),
    ("beams.residual_s", "s", "lower"),
    ("beams.fd_s", "s", "lower"),
    ("beams.fd_points", "count", "lower"),
    ("harness.write_s", "s", "lower"),
    ("harness.csv_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("host.probe_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS["ops_failed_frac"] = "ratio"


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
