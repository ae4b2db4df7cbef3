"""Deterministic parallel map.

Workers receive items in order and results are returned in the same order,
so output bytes never depend on the worker count.  Worker functions must be
picklable module-level callables.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> List[R]:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(threads, len(items))) as pool:
        # one item per task, so the costliest items (expand's largest
        # monomials, which come first) are not chunked onto one worker
        return pool.map(fn, items, chunksize=1)
