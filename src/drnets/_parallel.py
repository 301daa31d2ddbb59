"""Worker-pool helper for embarrassingly parallel study replications.

Results are collected in submission order, so output never depends on how
many workers ran or how the scheduler interleaved them.  The environment
variable DRNETS_THREADS caps the worker count.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from .errors import ConfigurationError


def worker_count() -> int:
    """Number of workers to use: min(cpu count, DRNETS_THREADS if set)."""
    n = os.cpu_count() or 1
    cap = os.environ.get("DRNETS_THREADS")
    if cap is not None:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise ConfigurationError(f"DRNETS_THREADS must be an integer, got {cap!r}") from None
    return n


def parallel_map(fn: Callable, items: Sequence) -> list:
    """Map fn over items, preserving order; serial when one worker suffices.

    fn and every item must be picklable when more than one worker is used.
    """
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: it loads multiprocessing, which serial runs never need.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
