"""Outside-in tracing of tdxray, from the benchmark's own files.

``Recorder.install`` replaces tdxray's public functions, in every tdxray
module that binds them, with wrappers that record one span per call.  It
also wraps the conformal-factor factories and the field presets, so the
evaluators of every factor and field that reaches the program are traced.
``uninstall`` puts the originals back, which lets traced and untraced
iterations alternate in one process.  No file under ``src/`` changes.

A span is ``(id, parent id, name, start, end, cpu, thread id, info)``:
wall-clock start and end, the CPU time of its thread over the span, and
the counts taken at that boundary.  Spans stay in memory until the traced
iteration ends, when ``layer_metrics`` reduces them.  Item spans of
``parallel_map`` run on worker threads and are parented to their map span.

Layer times are self CPU time: a span's thread CPU time minus that of its
children on the same thread.  Wall-clock self time would charge every span
of a GIL-bound parallel map with the time it waited for the lock.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

ID, PARENT, NAME, START, END, CPU, THREAD, INFO = range(8)


def _size(args, kwargs, out):
    return out.size


def _solve_info(args, kwargs, out):
    c, data = args[0], args[2] if len(args) > 2 else kwargs.get("data")
    key = (c.name, getattr(data, "name", None))
    return out.grid.nt - 1, out.u.nbytes, key


def _file_bytes(index):
    return lambda args, kwargs, out: os.path.getsize(args[index])


# (module, attribute, span name, info taken from (args, kwargs, result))
FUNCTIONS = [
    ("tdxray.spectral", "slice_from_sinogram", "spectral.slice", None),
    ("tdxray.reconstruct", "visible_slice_source", "reconstruct.fill",
     lambda a, k, out: int(out.available.sum())),
    ("tdxray.reconstruct", "truncated_inversion", "reconstruct.invert",
     lambda a, k, out: out[1]["n_modes"]),
    ("tdxray.geometry", "geodesic_trace", "geometry.trace",
     lambda a, k, out: out.times.size),
    ("tdxray.geometry", "exit_time", "geometry.exit_time", None),
    ("tdxray.xray", "xray_single", "xray.quadrature", None),
    ("tdxray.wavesim", "solve_dirichlet", "wavesim.solve", _solve_info),
    ("tdxray.wavesim", "dtn_apply", "wavesim.trace", None),
    ("tdxray.wavesim", "h1_boundary_norm", "wavesim.norm", None),
    ("tdxray.wavesim", "l2_boundary_norm", "wavesim.norm", None),
    ("tdxray.beams", "build_beam", "beams.build",
     lambda a, k, out: out.times.size),
    ("tdxray.beams", "residual_scaling", "beams.residual", None),
    ("tdxray.beams", "wave_operator_fd", "beams.fd",
     lambda a, k, out: out.shape[0]),
    ("tdxray.harness.runner", "_write_csv", "harness.write", _file_bytes(0)),
]

# (module, class, method, span name, info)
METHODS = [
    ("tdxray.spectral", "SpectralGrid", "sample", "spectral.sample", None),
    ("tdxray.spectral", "SpectralGrid", "forward", "spectral.fft", _size),
    ("tdxray.spectral", "SpectralGrid", "inverse", "spectral.fft", _size),
    ("tdxray.xray", "Sinogram", "write_csv", "harness.write", _file_bytes(1)),
    ("tdxray.reconstruct", "StabilityCurve", "write_csv", "harness.write",
     _file_bytes(1)),
    ("tdxray.beams", "BeamCurve", "write_csv", "harness.write",
     _file_bytes(1)),
]


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._presets: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            stack = self._stack()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            out, ok = None, False
            cpu, start = thread_time(), perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end, cpu = perf_counter(), thread_time() - cpu
                stack.pop()
                counts = info(args, kwargs, out) if ok and info else None
                spans.append((sid, parent, name, start, end, cpu,
                              threading.get_ident(), counts))

        return traced

    # ------------------------------------------------------------ wrappers

    def _traced_map(self, parallel_map):
        def mapped(fn, items):
            map_id = self._stack()[-1]
            item_span = self.wrap("parallel.item", fn)

            def item(it):
                # worker threads start with an empty stack: parent the item
                # to its map span, whichever thread runs it
                stack = self._stack()
                saved = stack[:]
                stack[:] = [map_id]
                try:
                    return item_span(it)
                finally:
                    stack[:] = saved

            return parallel_map(item, items)

        return self.wrap("parallel.map", functools.wraps(parallel_map)(mapped))

    def _traced_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            c = factory(*args, **kwargs)
            return dataclasses.replace(
                c,
                func=self.wrap("conformal.eval", c.func, _size),
                grad_x=self.wrap("conformal.eval", c.grad_x,
                                 lambda a, k, out: out[..., 0].size),
                hess_x=self.wrap("conformal.eval", c.hess_x,
                                 lambda a, k, out: out[..., 0, 0].size),
                dt=self.wrap("conformal.eval", c.dt, _size))

        return make

    def _traced_preset(self, preset):
        @functools.wraps(preset)
        def make():
            f = preset()
            sep = f.separable
            if sep is not None:
                sep = tuple(self.wrap("fields.eval", h, _size) for h in sep)
            return dataclasses.replace(
                f, evaluator=self.wrap("fields.eval", f.evaluator, _size),
                separable=sep)

        return make

    # ------------------------------------------------------------ install

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "tdxray" and not name.startswith("tdxray."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for mod, attr, name, info in FUNCTIONS:
            fn = getattr(sys.modules[mod], attr)
            self._rebind(fn, self.wrap(name, fn, info))
        pmap = sys.modules["tdxray.parallel"].parallel_map
        self._rebind(pmap, self._traced_map(pmap))
        conformal = sys.modules["tdxray.conformal"]
        for attr in ("bump_factor", "constant_factor"):
            fn = getattr(conformal, attr)
            self._rebind(fn, self._traced_factory(fn))
        for mod, cls, attr, name, info in METHODS:
            klass = getattr(sys.modules[mod], cls)
            fn = klass.__dict__[attr]
            setattr(klass, attr, self.wrap(name, fn, info))
            self._undo.append((klass, attr, fn))
        presets = sys.modules["tdxray.harness.runner"].FIELD_PRESETS
        self._presets = dict(presets)
        for key, preset in self._presets.items():
            presets[key] = self._traced_preset(preset)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()
        runner = sys.modules["tdxray.harness.runner"]
        runner.FIELD_PRESETS.update(self._presets)


# ---------------------------------------------------------------- reduction


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
    by_id = {s[ID]: s for s in spans}
    named = defaultdict(list)
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    cpu_s = defaultdict(float)
    for s in spans:
        named[s[NAME]].append(s)
        wall_s[s[NAME]] += s[END] - s[START]
        cpu_s[s[NAME]] += s[CPU]
        self_s[s[NAME]] += s[CPU] - sum(c[CPU] for c in children.get(s[ID], ())
                                        if c[THREAD] == s[THREAD])

    def count(name):
        return len(named[name])

    def info_sum(name, pick=lambda i: i):
        return sum(pick(s[INFO]) for s in named[name] if s[INFO] is not None)

    def ratio(num, den):
        return num / den if den else 0.0

    def under(span, ancestor_name):
        while span[PARENT]:
            span = by_id.get(span[PARENT])
            if span is None:
                return False
            if span[NAME] == ancestor_name:
                return True
        return False

    fill_slices = sum(under(s, "reconstruct.fill")
                      for s in named["spectral.slice"])
    workers = [len({s[THREAD] for s in children[m[ID]]})
               for m in named["parallel.map"]]
    solves = named["wavesim.solve"]
    return {
        "fields.eval_s": self_s["fields.eval"],
        "fields.eval_calls": count("fields.eval"),
        "fields.points": info_sum("fields.eval"),
        "spectral.slice_s": self_s["spectral.slice"],
        "spectral.slices": count("spectral.slice"),
        "spectral.sample_s": self_s["spectral.sample"],
        "spectral.fft_s": self_s["spectral.fft"],
        "spectral.fft_points": info_sum("spectral.fft"),
        "reconstruct.fill_s": self_s["reconstruct.fill"],
        "reconstruct.lattice_points": info_sum("reconstruct.fill"),
        "reconstruct.points_per_slice":
            ratio(info_sum("reconstruct.fill"), fill_slices),
        "reconstruct.invert_s": self_s["reconstruct.invert"],
        "reconstruct.inversions": count("reconstruct.invert"),
        "reconstruct.n_modes": info_sum("reconstruct.invert"),
        "parallel.map_s": wall_s["parallel.map"],
        "parallel.items": count("parallel.item"),
        "parallel.workers": max(workers, default=0),
        "parallel.concurrency":
            ratio(cpu_s["parallel.item"], wall_s["parallel.map"]),
        "geometry.trace_s": self_s["geometry.trace"],
        "geometry.exit_time_s": self_s["geometry.exit_time"],
        "geometry.rays_traced": count("geometry.trace"),
        "geometry.path_samples": info_sum("geometry.trace"),
        "xray.quadrature_s": self_s["xray.quadrature"],
        "xray.rays": count("xray.quadrature"),
        "conformal.eval_s": self_s["conformal.eval"],
        "conformal.eval_calls": count("conformal.eval"),
        "conformal.points": info_sum("conformal.eval"),
        "wavesim.solve_s": self_s["wavesim.solve"],
        "wavesim.solves": len(solves),
        "wavesim.steps": info_sum("wavesim.solve", lambda i: i[0]),
        "wavesim.distinct_solve_ratio":
            ratio(len({s[INFO][2] for s in solves if s[INFO]}), len(solves)),
        "wavesim.solution_bytes": info_sum("wavesim.solve", lambda i: i[1]),
        "wavesim.trace_s": self_s["wavesim.trace"],
        "wavesim.norm_s": self_s["wavesim.norm"],
        "beams.build_s": self_s["beams.build"],
        "beams.steps": info_sum("beams.build"),
        "beams.residual_s": self_s["beams.residual"],
        "beams.fd_s": self_s["beams.fd"],
        "beams.fd_points": info_sum("beams.fd"),
        "harness.write_s": self_s["harness.write"],
        "harness.csv_bytes": info_sum("harness.write"),
    }


def median_metrics(iterations: list[dict]) -> dict[str, float]:
    return {k: statistics.median(it[k] for it in iterations)
            for k in iterations[0]}
