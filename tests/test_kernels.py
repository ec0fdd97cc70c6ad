"""Kernel correctness against independent references: Hungarian vs brute
force and vs the one-problem loop, BFS and induced BFS vs hand BFS, antipodality vs the definition's
triple loop, and frozen kernel values in a fresh process."""

import os
import subprocess
import sys
from collections import deque
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvlab import _kernels
from curvlab.families import cocktail_party, hypercube
from curvlab.graphs import build_graph, distances, induced_subgraph

from helpers import antipodal_bruteforce, assignment_bruteforce, hungarian_scalar


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=20), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_hungarian_matches_bruteforce(cost_rows):
    cost = np.array([cost_rows], dtype=np.int64)
    n = cost.shape[1]
    row_to_col, u, v = _kernels.hungarian(cost)
    assert row_to_col.shape == u.shape == v.shape == (1, n)
    assert sorted(row_to_col[0].tolist()) == list(range(n))
    total = int(cost[0, np.arange(n), row_to_col[0]].sum())
    assert total == assignment_bruteforce(cost_rows)
    # the potentials are the dual optimum that certifies the total
    assert (u[0][:, None] + v[0][None, :] <= cost[0]).all()
    assert int(u.sum() + v.sum()) == total


def _assert_equals_scalar_loop(cost):
    count, n = cost.shape[0], cost.shape[1]
    row_to_col, u, v = _kernels.hungarian(cost)
    assert row_to_col.shape == u.shape == v.shape == (count, n)
    for b in range(count):
        total, want, want_u, want_v = hungarian_scalar(cost[b])
        assert row_to_col[b].tolist() == want
        assert (u[b].tolist(), v[b].tolist()) == (want_u, want_v)
        assert int(cost[b, np.arange(n), row_to_col[b]].sum()) == total


_COSTS = st.sampled_from([st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=40)])


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=6), _COSTS, st.data())
@settings(max_examples=200, deadline=None)
def test_hungarian_stack_equals_scalar_loop(n, count, entries, data):
    # the lockstep kernel breaks every tie as the one-problem loop does: the
    # same totals, assignments and potentials, problem by problem; entries in
    # {1, 2, 3} make ties the rule
    size = count * n * n
    cost = np.array(data.draw(st.lists(entries, min_size=size, max_size=size)), dtype=np.int64)
    _assert_equals_scalar_loop(cost.reshape(count, n, n))


@pytest.mark.parametrize("n", [0, 1])
def test_hungarian_stack_of_empty_and_one_cell_problems(n):
    _assert_equals_scalar_loop(np.arange(3 * n * n, dtype=np.int64).reshape(3, n, n))


def _bfs_reference(adj, n, src):
    dist = [-1] * n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=100, deadline=None)
def test_bfs_all_pairs_matches_reference(n, data):
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in possible if data.draw(st.booleans())]
    g = build_graph(n, edges)
    dist = _kernels.bfs_all_pairs(g.dense_adjacency)
    for s in range(n):
        assert list(dist[s]) == _bfs_reference(g.adjacency, n, s)


def test_induced_distances_respect_subgraph():
    # path 0-1-2-3 plus chord 0-3; induced on {0,1,3}: edges 0-1 and 0-3 only
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    members = np.array([0, 1, 3], dtype=np.int32)
    dm = _kernels.induced_distances(g.dense_adjacency, members)
    assert dm[0, 1] == 1 and dm[0, 2] == 1 and dm[1, 2] == 2


def test_antipodal_matrix():
    # 4-cycle is antipodal, path is not
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert _kernels.is_antipodal_matrix(_kernels.bfs_all_pairs(c4.dense_adjacency))
    p3 = build_graph(3, [(0, 1), (1, 2)])
    d = _kernels.bfs_all_pairs(p3.dense_adjacency)
    assert not _kernels.is_antipodal_matrix(d)


@st.composite
def graphs(draw, connected=False):
    """Random simple graphs on 1-12 vertices; ``connected`` adds a random spanning tree."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    if connected:
        for v in range(1, n):
            edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
    return build_graph(n, sorted(edges))


@st.composite
def graphs_with_subsets(draw):
    g = draw(graphs())
    members = draw(st.sets(st.integers(min_value=0, max_value=g.n - 1), min_size=1))
    return g, sorted(members)


# a path, an edge and an isolated vertex; the subset splits the path
@example((build_graph(7, [(0, 1), (1, 2), (3, 4)]), [0, 2, 3, 4, 6]))
@given(graphs_with_subsets())
@settings(max_examples=150, deadline=None)
def test_induced_distances_match_reference(case):
    g, members = case
    dm = _kernels.induced_distances(g.dense_adjacency, np.array(members, dtype=np.int32))
    sub, verts = induced_subgraph(g, members)
    assert list(verts) == members
    for s in range(sub.n):
        assert list(dm[s]) == _bfs_reference(sub.adjacency, sub.n, s)


@example(hypercube(3))
@example(cocktail_party(3))
@example(build_graph(6, [(i, (i + 1) % 6) for i in range(6)]))  # C6
@example(build_graph(2, [(0, 1)]))
@example(build_graph(3, [(0, 2), (1, 2)]))  # only the last vertex lacks a partner
@given(graphs(connected=True))
@settings(max_examples=150, deadline=None)
def test_antipodal_matrix_matches_reference(g):
    dist = distances(g).dist
    expected = antipodal_bruteforce(dist.tolist())
    assert _kernels.is_antipodal_matrix(dist) == expected
    # one vertex per block, as the scan of a large graph runs
    with patch.object(_kernels, "_ANTIPODAL_BLOCK", 1):
        assert _kernels.is_antipodal_matrix(dist) == expected


_LANE_SCRIPT = """
import numpy as np
from curvlab import _kernels
from curvlab.families import johnson
from curvlab.graphs import distances
from curvlab.transport import kappa
print("numba", _kernels.NUMBA_ENABLED)
g = johnson(5, 2)
d = distances(g)
print("dist", int(d.dist.sum()), d.diameter)
vals = sorted(str(kappa(g, u, v).value) for u, v in g.edges())
print("kappa", vals[0], vals[-1], len(vals))
cost = (np.arange(49, dtype=np.int64).reshape(1, 7, 7) * 13) % 17
row_to_col = _kernels.hungarian(cost)[0]
print("hungarian", int(cost[0, np.arange(7), row_to_col[0]].sum()))
print("antipodal", _kernels.is_antipodal_matrix(d.dist))
"""


@pytest.mark.parametrize("flag", ["1", "0"])
def test_lanes_agree(flag):
    # CURVLAB_NUMBA once chose between a JIT lane and a pure-Python lane;
    # there is one numpy lane now and a fresh process under either setting
    # must run it and give the same frozen values
    env = dict(os.environ, CURVLAB_NUMBA=flag)
    out = subprocess.run(
        [sys.executable, "-c", _LANE_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout.splitlines()
    # dist sum hand-counted (60 ordered pairs at distance 1, 30 at distance
    # 2), hungarian total checked against permutation brute force, kappa
    # from the J(n,2) edge-curvature formula at n=5
    assert out == [
        "numba False",
        "dist 120 2",
        "kappa 5/6 5/6 30",
        "hungarian 25",
        "antipodal False",
    ]
