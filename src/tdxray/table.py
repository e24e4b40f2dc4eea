"""The one CSV format of every artifact table.

A table is a header row, then one row per record.  A float cell, numpy
floats included, is written as repr(float(v)), the shortest text that reads
back to the same double; any other cell is written as str(v).
"""

from __future__ import annotations

import csv


def write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else str(v)
                        for v in row])
