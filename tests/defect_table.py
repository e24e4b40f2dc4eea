"""Print the defect x criterion table of README.

Run from the repository root:

    PYTHONPATH=src python tests/defect_table.py

Each entry of the defect catalogue (tests/defects.py) runs the acceptance
criteria of its module in a fresh process, so no lattice or context
cached by one row reaches the next; a first row runs the same criteria
with no defect.  A cell is PASS, or FAIL with the measured text.  The
criteria's own report lines go to stderr as they run.
"""

import contextlib
import json
import subprocess
import sys

import defects


def run_one(name: str, module: str) -> None:
    """Print (cid, passed, measured) of each criterion of module, run
    under the named defect ("none" for no defect), as JSON on stdout."""
    from tdxray.harness.acceptance import run_acceptance

    patch = (contextlib.nullcontext() if name == "none"
             else getattr(defects, name)())
    with patch, contextlib.redirect_stdout(sys.stderr):
        results = run_acceptance(module)
    print(json.dumps([[r.cid, r.passed, r.measured] for r in results]))


def results(name: str, module: str) -> dict:
    """cid -> (passed, measured) of a fresh process's run_one."""
    out = subprocess.run([sys.executable, __file__, name, module],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return {cid: (passed, measured)
            for cid, passed, measured in json.loads(out)}


def change(name: str) -> str:
    """The defect's docstring on one line."""
    if name == "none":
        return "none"
    return " ".join(getattr(defects, name).__doc__.split())


def table() -> str:
    rows = {"none": {}}
    for module in dict.fromkeys(defects.CATALOGUE.values()):
        rows["none"].update(results("none", module))
    for name, module in defects.CATALOGUE.items():
        rows[name] = results(name, module)
    cids = sorted({cid for cells in rows.values() for cid in cells})
    lines = ["| Defect | Change | " + " | ".join(f"C{c:02d}" for c in cids)
             + " |", "|---|---|" + "---|" * len(cids)]
    for name, cells in rows.items():
        marks = []
        for cid in cids:
            if cid not in cells:
                marks.append("not run")
            elif cells[cid][0]:
                marks.append("PASS")
            else:
                marks.append(f"FAIL ({cells[cid][1]})")
        lines.append(f"| `{name}` | {change(name)} | " + " | ".join(marks)
                     + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) == 3:
        run_one(*sys.argv[1:])
    else:
        print(table())
