"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py

Run it at the commit whose outputs are the reference; it records that
revision and whether src/ differed from it.  It runs every workload once
per input variant, at both sizes, untraced and in the benchmark's pinned
environment, and rewrites perfbench/reference.json.  About 6 minutes on a
2-core box.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    os.environ.update(run.PINNED)  # before numpy is imported
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    outputs: dict = {}
    run.RUNS.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="record-", dir=run.RUNS)
    try:
        for size in workloads.SIZES:
            for name in workloads.WORKLOADS:
                for variant in range(workloads.VARIANTS):
                    _, calls = workloads.build(name, variant, size, out_dir)
                    outputs.setdefault(size, {}).setdefault(name, {})[
                        str(variant)] = {call: fn() for call, fn in calls}
                    print(f"recorded {size} {name} variant {variant}",
                          flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    doc = {"recorded_at": run.git_record("src"), "rtol": workloads.RTOL,
           "variants": workloads.VARIANTS, "outputs": outputs}
    workloads.REFERENCE.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
