"""One workload process: set up, report ready, run the timed iterations.

Started by run.py with its arguments as one JSON object in argv[1].  It
writes JSON lines to stdout: ``{"ready": ...}`` once tdxray is imported and
the inputs are built, then, unless it only sets up, ``{"probe": true}``
requests and the result.  At each request it waits until run.py has timed
the host-speed probe (hostspeed.py) and written the seconds to its stdin.
tdxray's own prints are captured by the workloads, so they never mix into
these lines.

Untraced runs time every iteration.  Traced runs alternate an untraced and
a traced iteration, so the tracing overhead is measured under the same
conditions as the per-layer numbers.  The probe is taken before the first
iteration and after each one; run.py scales the times by them.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer


def send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started, in MB.

    Read from VmHWM, which starts afresh at exec.  ``ru_maxrss`` would also
    count the resident size of run.py, which a child inherits in its peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # given in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def probe() -> float:
    """Seconds of the host-speed probe, timed by run.py while this waits."""
    send({"probe": True})
    return float(sys.stdin.readline())


def measure(calls, reference: dict, seconds: float, trace: bool) -> dict:
    """Run iterations until ``seconds`` are spent or a call fails."""
    import workloads  # after main() has put src/ on the path

    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    probes = [probe()]
    layers: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    for traced in itertools.cycle([False, True] if trace else [False]):
        rec = tracer.Recorder() if traced else None
        outputs = {}
        if rec:
            rec.install()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            for name, call in calls:
                try:
                    outputs[name] = call()
                except Exception as exc:  # any raise counts as a failed call
                    traceback.print_exc()
                    outputs[name] = exc
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if rec:
                rec.uninstall()
        for name, out in outputs.items():
            attempted += 1
            found = ([f"raised {type(out).__name__}: {out}"]
                     if isinstance(out, Exception)
                     else workloads.compare(out, reference[name]))
            if found:
                failed += 1
                problems += [f"{name}: {p}" for p in found]
        probes.append(probe())
        walls[traced].append(wall)
        if traced:
            layers.append(tracer.layer_metrics(rec.spans))
        else:
            cpus.append(cpu)
        if problems:
            break
        every = walls[False] + walls[True]
        if (walls[False] and (walls[True] or not trace)
                and time.perf_counter() - start + statistics.median(every)
                > seconds):
            break

    if trace:
        metrics = tracer.median_metrics(layers) if layers else {}
        if walls[True]:
            metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                              / statistics.median(walls[False])
                                              - 1.0)
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb(),
        }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "walls": walls[False], "traced_walls": walls[True],
            "probes": probes, "metrics": metrics}


def main() -> int:
    args = json.loads(sys.argv[1])
    src = Path(args["root"]) / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import tdxray
    if Path(tdxray.__file__).resolve().parent != (src / "tdxray").resolve():
        print(f"tdxray imported from {tdxray.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    variant, calls = workloads.build(args["workload"], args["seed"],
                                     args["size"], args["out_dir"])
    send({"ready": True, "variant": variant, "env": {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tdxray": tdxray.__version__,
        "TDXRAY_THREADS": os.environ.get("TDXRAY_THREADS"),
    }})
    if args["setup_only"]:
        return 0
    reference = workloads.load_reference(args["size"], args["workload"],
                                         variant)
    send(measure(calls, reference, args["seconds"], bool(args["trace"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
