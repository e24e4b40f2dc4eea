"""tdxray benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload recon-sweep --seed 1 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every workload runs in fresh processes with a pinned
environment: ``TDXRAY_THREADS=2`` and one BLAS/OpenMP thread.  Set-up time
is taken from outside, from process start to the worker's ready line, over
several fresh processes.  Every time reported is scaled to the reference
host speed by the probes this process times during the run (hostspeed.py).
The last line of a workload run is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit status is 0 only when every call
succeeded and matched the reference outputs.

``--all`` runs every workload, prints every metric with its unit, and
rewrites ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import hostspeed
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = HERE / "_runs"

#: Extra set-up-only processes per run, half before and half after the
#: measured worker, so that they sample the host at both ends of the run;
#: with the measured worker's own set-up they give the median reported as
#: setup_s.
SETUP_EXTRA = 6
SETUP_TIMEOUT = 60.0
RESULT_GRACE = 120.0

PINNED = {"TDXRAY_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


def _spawn(args: dict, timeout: float = 0.0):
    """Start one worker and serve its probe requests; returns (seconds
    until ready, ready, result).

    ``timeout`` bounds the wait for the result after the ready line.
    """
    env = dict(os.environ, **PINNED)
    lines: queue.Queue = queue.Queue()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(args)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        ready = lines.get(timeout=SETUP_TIMEOUT)
        setup = time.perf_counter() - start
        if ready is None:
            raise WorkerFailed("worker exited before it was ready")
        result = None
        deadline = time.monotonic() + timeout
        while not args["setup_only"] and result is None:
            line = lines.get(timeout=max(deadline - time.monotonic(), 0.0))
            if line is None:
                raise WorkerFailed("worker exited without a result")
            msg = json.loads(line)
            if "probe" not in msg:
                result = msg
                continue
            proc.stdin.write(f"{hostspeed.probe()!r}\n")
            proc.stdin.flush()
        if proc.wait(timeout=SETUP_TIMEOUT) != 0:
            raise WorkerFailed(f"worker exited with status {proc.returncode}")
        return setup, json.loads(ready), result
    except queue.Empty:
        raise WorkerFailed("worker timed out") from None
    except BrokenPipeError:
        raise WorkerFailed("worker exited while it waited for a probe") \
            from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass


def bench(workload: str, seed: int, seconds: float, trace: int,
          size: str = "full") -> dict:
    RUNS.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS)
    args = {"root": str(ROOT), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "size": size,
            "out_dir": out_dir, "setup_only": True}
    # set-up time is an end-to-end metric, so traced runs skip the extras
    extra = 0 if trace else SETUP_EXTRA // 2
    try:
        setups = [_spawn(args)[0] for _ in range(extra)]
        setup, ready, result = _spawn(dict(args, setup_only=False),
                                      seconds + RESULT_GRACE)
        setups += [setup] + [_spawn(args)[0] for _ in range(extra)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    # the run's times, set-ups included, in seconds at the reference speed
    probe = statistics.median(result["probes"])
    metrics = result["metrics"]
    if trace:
        metrics["host.probe_s"] = probe
    else:
        scale = spec.PROBE_REF_S / probe
        metrics["wall_s"] *= scale
        metrics["cpu_s"] *= scale
        metrics["setup_s"] = statistics.median(setups) * scale
    result.update(variant=ready["variant"], env=ready["env"],
                  setup_samples=len(setups))
    return result


def _cpu_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    caches_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(glob.glob(f"{caches_dir}/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "caches": caches}


def git_record(*paths: str) -> dict:
    """Revision of the checkout, and whether tracked files under ``paths``
    (all when none are given) differ from it."""
    if not (ROOT / ".git").exists():
        return {"git": "unknown", "dirty": None}

    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd],
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()

    return {"git": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain",
                              "--untracked-files=no", "--", *paths))}


def environment(worker_env: dict) -> dict:
    return {**_cpu_record(), **worker_env, **git_record()}


def report(workload: str, seed: int, res: dict) -> None:
    attempted, failed = res["attempted"], res["failed"]
    print(f"{workload}  seed {seed}  variant {res['variant']}  "
          f"{res['setup_samples']} set-ups  (medians)")
    for key, label in (("walls", "untraced iterations, unscaled"),
                       ("traced_walls", "traced iterations, unscaled"),
                       ("probes", "host probes")):
        if res[key]:
            print(f"  {label} (s): " + " ".join(f"{w:.4g}" for w in res[key]))
    for name, value in res["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {spec.UNITS[name]}")
    print(f"  {'ops_failed_frac':32s} {failed / max(attempted, 1):14.6g} "
          f"{spec.UNITS['ops_failed_frac']}  ({failed} of {attempted} calls)")
    for problem in res["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the self-test")
    a = p.parse_args(argv)
    # a terminated run still kills and reaps its worker (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if a.all == bool(a.workload):
        p.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "tdxray" / "__init__.py").is_file():
        print(f"no tdxray sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [n for n, _ in spec.WORKLOADS] if a.all else [a.workload]
    results = {}
    for name in names:
        try:
            results[name] = bench(name, a.seed, a.seconds, a.trace, a.size)
        except WorkerFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    print("env " + json.dumps(environment(results[names[0]]["env"])))
    for name in names:
        report(name, a.seed, results[name])
    ok = all(r["failed"] == 0 for r in results.values())
    if a.all:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
    else:
        res = results[a.workload]
        print(json.dumps({"correct": ok, "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": {k: {"value": v, "unit": spec.UNITS[k]}
                                      for k, v in res["metrics"].items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
