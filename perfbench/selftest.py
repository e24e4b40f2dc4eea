"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload once at the tiny size, untraced and traced, and checks
that the run is correct and prints every metric of spec.py with its unit.
Then checks, in a copy of the benchmark beside the program's sources, that
a corrupted reference value makes every workload report failed calls
(ops_failed_frac > 0) and exit non-zero, and that a directory holding only
BENCHMARK.json and perfbench/ makes the benchmark exit non-zero without a
result.  Prints one line per check; exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spec

TINY = ["--seed", "3", "--seconds", "1", "--size", "tiny"]


def bench(argv, cwd: Path = run.ROOT):
    """(exit status, stdout, parsed last line or None) of one run.py call."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, proc.stdout, last


def corrupt(doc: dict, variant: str) -> None:
    """Move the first finite reference value of each tiny workload by 1e-9."""
    for outputs in doc["outputs"]["tiny"].values():
        for values in next(iter(outputs[variant].values())).values():
            i = next((i for i, v in enumerate(values) if math.isfinite(v)
                      and v != 0.0), None)
            if i is not None:
                values[i] *= 1.0 + 1e-9
                break


def copy_benchmark(dest: Path) -> Path:
    """A directory holding only BENCHMARK.json and a copy of perfbench/."""
    shutil.copytree(run.HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", dest)
    return dest


def main() -> int:
    results = []

    def check(ok: bool, what: str) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    names = [n for n, _ in spec.WORKLOADS]
    units = {0: {n: u for n, u, *_ in spec.END_TO_END},
             1: {n: u for n, u, _ in spec.PER_LAYER}}
    for name in names:
        for trace in (0, 1):
            status, out, res = bench(["--workload", name, "--trace",
                                      str(trace), *TINY])
            what = f"{name} --trace {trace}"
            check(status == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] > 0,
                  f"{what}: correct, no failed calls")
            got = res and {k: m["unit"] for k, m in res["metrics"].items()}
            check(got == units[trace], f"{what}: every metric with its unit")
            if trace == 0:
                check(all(f" {n} " in out for n in [*units[0],
                                                     "ops_failed_frac"]),
                      f"{what}: prints the end-to-end metrics by name")

    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        corrupted = copy_benchmark(Path(tmp, "corrupted"))
        (corrupted / "src").symlink_to(run.ROOT / "src")
        reference = corrupted / "perfbench" / "reference.json"
        doc = json.loads(reference.read_text())
        corrupt(doc, str(3 % doc["variants"]))
        reference.write_text(json.dumps(doc))
        for name in names:
            status, _, res = bench(["--workload", name, "--trace", "0",
                                    *TINY], cwd=corrupted)
            check(status != 0 and res is not None and not res["correct"]
                  and res["failed"] / res["attempted"] > 0,
                  f"{name}: corrupted reference gives ops_failed_frac > 0")

        bare = copy_benchmark(Path(tmp, "bare"))
        status, _, res = bench(["--workload", names[0], "--trace", "0",
                                *TINY], cwd=bare)
        check(status != 0 and res is None,
              "without the program: non-zero exit, no result")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
