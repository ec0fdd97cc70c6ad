"""Pool sizing and the shared-argument map."""

import operator

import pytest

from curvlab import parallel
from curvlab.errors import BadParam
from curvlab.parallel import map_shared, pool_size


@pytest.mark.parametrize(
    "jobs,tasks,cpus,want",
    [
        (8, 100, 4, 4),
        (2, 100, 4, 2),
        (8, 3, 4, 3),
        (1, 100, 4, 1),
        (4, 0, 4, 1),
        (4, 10, None, 1),
    ],
)
def test_pool_size_is_bounded_by_tasks_and_cpus(monkeypatch, jobs, tasks, cpus, want):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert pool_size(jobs, tasks) == want


@pytest.mark.parametrize("jobs", [0, -3])
def test_pool_size_rejects_fewer_than_one_job(jobs):
    with pytest.raises(BadParam):
        pool_size(jobs, 10)


def test_map_shared_in_process_keeps_order():
    assert map_shared(pow, (2,), [5, 0, 3], jobs=1) == [32, 1, 8]


def test_map_shared_pool_matches_in_process(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    items = list(range(7))
    assert map_shared(pow, (2,), items, jobs=2) == [2**x for x in items]


def test_map_shared_pool_takes_shared_arguments_past_the_pipe_buffer(monkeypatch):
    # 128 KiB of shared data, twice the pipe buffer, reaches every worker
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    blob = bytes(range(256)) * 512
    assert map_shared(operator.getitem, (blob,), [0, 255, 131071], jobs=2) == [0, 255, 255]
