"""Process pools for sweeps made of independent tasks.

The arguments that every task of a sweep shares, such as a graph and its
distance oracle, reach each worker once, through the pool initializer; a
task then carries only its own item.  A pickled graph carries none of its
cached views, so a sweep that reads the oracle passes it along.  Workers
are spawned fresh, so a pool never inherits the threads of the parent
process.
"""

from __future__ import annotations

import os
from functools import partial
from multiprocessing import get_context
from typing import Any, Callable, Sequence, TypeVar

from .errors import BadParam

T = TypeVar("T")

# The shared arguments of the sweep a worker serves; set once per worker
# process by ``_init_worker`` and never in the parent.
_shared: tuple = ()


def pool_size(jobs: int, tasks: int) -> int:
    """Worker count for ``tasks`` tasks when ``jobs`` are asked for: never
    more than there are tasks or CPUs, and 1 means run in this process."""
    if jobs < 1:
        raise BadParam(f"--jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _init_worker(*shared: Any) -> None:
    global _shared
    _shared = shared


def _call_shared(fn: Callable[..., T], item: Any) -> T:
    return fn(*_shared, item)


def map_shared(
    fn: Callable[..., T], shared: tuple, items: Sequence[Any], jobs: int
) -> list[T]:
    """``[fn(*shared, item) for item in items]``, in order, on up to ``jobs``
    worker processes."""
    size = pool_size(jobs, len(items))
    if size == 1:
        return [fn(*shared, item) for item in items]
    with get_context("spawn").Pool(size, initializer=_init_worker, initargs=shared) as pool:
        return pool.map(partial(_call_shared, fn), items)
