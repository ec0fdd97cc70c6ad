"""Process pools for sweeps made of independent tasks.

The arguments that every task of a sweep shares, such as a graph, reach
each worker once, through a queue that the pool initializer reads; a task
then carries only its own item.  A pickled graph carries its distance
oracle when the parent has computed one, and no other cached view.
Workers are spawned fresh, so a pool never inherits the threads of the
parent process.

The shared arguments are not the pool's ``initargs``: those travel in the
spawn handshake, and once they pass the pipe buffer (64 KiB; an oracle of
more than 128 vertices does) the parent waits for each worker to import
curvlab before it starts the next one.  Through the queue the workers
start together.
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


def _init_worker(inbox: Any) -> None:
    global _shared
    _shared = inbox.get()


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
    ctx = get_context("spawn")
    inbox = ctx.SimpleQueue()
    with ctx.Pool(size, initializer=_init_worker, initargs=(inbox,)) as pool:
        for _ in range(size):
            inbox.put(shared)
        return pool.map(partial(_call_shared, fn), items)
