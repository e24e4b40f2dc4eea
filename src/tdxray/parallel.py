"""Deterministic data-parallel map.

TDXRAY_THREADS caps the worker count (default 1, sequential); any value
other than a positive integer raises ConfigInvalid.  Results are
collected by input index, so the output order, and any reduction computed
from it, is independent of scheduling and thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigInvalid


def thread_count() -> int:
    raw = os.environ.get("TDXRAY_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigInvalid(f"TDXRAY_THREADS = {raw!r} is not a positive "
                            "integer")
    return int(raw)


def parallel_map(fn, items):
    items = list(items)
    workers = thread_count()
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
