"""Hot integer kernels: all-pairs BFS, Hungarian assignment, interval scans.

The kernels are numpy.  Breadth-first search advances the frontiers of all
sources at once, one matrix product per level, and antipodality is decided
by one broadcast per block of vertices; the Hungarian assignment is a plain
Python loop over ``cost.tolist()`` that returns Python ints.  All results
are integers.  ``NUMBA_ENABLED`` is the constant ``False``: there is no JIT
lane, and the benchmark's run records read it.
"""

from __future__ import annotations

import numpy as np

NUMBA_ENABLED = False

UNREACHABLE = -1
# entries of the (block, m, m) temporary in is_antipodal_matrix; at 2**16
# (256 KiB of int32) the repeated temporaries raised the peak RSS of a
# strong-sphericity scan by 0.7 MiB
_ANTIPODAL_BLOCK = 1 << 14


def _frontier_bfs(adj):
    """Hop distances from every source of a dense adjacency; -1 where unreachable.

    Path counts in ``frontier @ adj`` are at most m, so floats are exact.
    A bool product is an order of magnitude slower; float32 is faster at
    m = 160 but its BLAS kernels add half a MiB of peak RSS that the float64
    ones, which the spectral and Bakry-Emery code load anyway, do not.
    """
    m = adj.shape[0]
    dist = np.full((m, m), UNREACHABLE, dtype=np.int32)
    frontier = np.eye(m, dtype=bool)
    seen = frontier.copy()
    level = 0
    while frontier.any():
        dist[frontier] = level
        level += 1
        frontier = (frontier.astype(np.float64) @ adj > 0) & ~seen
        seen |= frontier
    return dist


def bfs_all_pairs(adj):
    """All-pairs hop distances of a dense 0/1 adjacency; unreachable entries are -1."""
    return _frontier_bfs(adj)


def induced_distances(adj, members):
    """All-pairs BFS inside the subgraph that ``members`` induces in ``adj``.

    ``members`` is an int32 array of distinct vertex ids; distances are hop
    counts of the induced subgraph, -1 where unreachable within it.
    """
    return _frontier_bfs(adj[np.ix_(members, members)])


def is_antipodal_matrix(dist):
    """Antipodality of a connected metric: every z has z' with d(z,w)+d(w,z')=d(z,z') for all w.

    Such a z' lies at distance ecc(z) from z, and the equation at w = z
    forces d(z,z') = ecc(z), so z has a partner exactly when some z' has
    d(z,w) + d(w,z') = ecc(z) for every w.
    """
    m = dist.shape[0]
    ecc = dist.max(axis=1, initial=0)
    block = max(1, _ANTIPODAL_BLOCK // max(1, m * m))
    for lo in range(0, m, block):
        hi = min(m, lo + block)
        # sums[b, w, z'] = d(z_b, w) + d(w, z')
        sums = dist[lo:hi, :, None] + dist[None, :, :]
        if not (sums == ecc[lo:hi, None, None]).all(axis=1).any(axis=1).all():
            return False
    return True


def hungarian(cost):
    """Exact minimum-cost perfect assignment of a square integer matrix.

    Classic O(n^3) Hungarian algorithm with integer potentials, over Python
    ints; returns (minimum total ``int``, row -> column ``list`` of ``int``).
    """
    n = cost.shape[0]
    rows = cost.tolist()
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [float("inf")] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row, ui0 = rows[i0 - 1], u[i0]
            delta = float("inf")
            j1 = 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    row_to_col = [0] * n
    for j in range(1, n + 1):
        row_to_col[p[j] - 1] = j - 1
    return sum(row[j] for row, j in zip(rows, row_to_col)), row_to_col


def interval_members(dist_x, dist_y, dxy):
    """Vertices z with d(x,z) + d(z,y) = d(x,y), as an int32 array."""
    on_geodesic = (dist_x >= 0) & (dist_y >= 0) & (dist_x + dist_y == dxy)
    return np.flatnonzero(on_geodesic).astype(np.int32)
