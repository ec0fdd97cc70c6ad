"""Hot integer kernels: all-pairs BFS, Hungarian assignment, interval scans.

The kernels are numpy.  Breadth-first search advances the frontiers of all
sources at once, one matrix product per level, antipodality is decided by
one broadcast per block of vertices, and the Hungarian kernel solves a
stack of equal-sized assignment problems in lockstep, one search step for
all of them at a time.  All results are integers.  ``NUMBA_ENABLED`` is
the constant ``False``: there is no JIT lane, and the benchmark's run
records read it.
"""

from __future__ import annotations

import numpy as np

NUMBA_ENABLED = False

UNREACHABLE = -1
# entries of the (block, m, m) temporary in is_antipodal_matrix; at 2**16
# (256 KiB of int32) the repeated temporaries raised the peak RSS of a
# strong-sphericity scan by 0.7 MiB
_ANTIPODAL_BLOCK = 1 << 14
# Hungarian slack of a column not yet reached, and the cost of the padding
# row that a finished search reads: both exceed every real slack (< 10**11)
_OPEN = np.iinfo(np.int64).max
_CLOSED = _OPEN >> 1


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
    """Exact minimum-cost perfect assignments of a stack of square integer matrices.

    ``cost`` has shape (B, n, n).  Every problem runs the classic O(n^3)
    Hungarian algorithm with integer potentials, in lockstep: row i is
    inserted into all B problems at once, and each search step acts on the
    problems whose search for row i is still open.  The free column of
    least slack is the first ``argmin`` over that row, so ties break to the
    smallest column as in the one-problem loop, and every assignment and
    potential equals that loop's.  Returns ``(row_to_col, u, v)``, each of
    shape (B, n) and int64: row i of problem b goes to column
    ``row_to_col[b, i]``, and ``u[b]`` and ``v[b]`` are the row and column
    potentials of the optimum, with u_i + v_j <= cost_ij in every cell and
    equality on the assignment.

    Bound: the free column reached by the search for row i has v = 0 and
    row i enters with u = 0, so each search moves every potential by at
    most the largest cost C, and |u|, |v| <= n C.  Costs are distances, so
    C < n_graph <= MAX_VERTICES = 10^5 and n <= n_graph; every potential
    and slack stays below 10^11, far inside int64.
    """
    count, n = cost.shape[0], cost.shape[1]
    rows = np.arange(count)
    # 1-based as in the one-problem loop.  Row 0 is read only by a problem
    # whose search is over (p[j0] == 0): its cost there never improves a slack.
    c = np.zeros((count, n + 1, n + 1), dtype=np.int64)
    c[:, 0, :] = _CLOSED
    c[:, 1:, 1:] = cost
    u = np.zeros((count, n + 1), dtype=np.int64)
    v = np.zeros((count, n + 1), dtype=np.int64)
    p = np.zeros((count, n + 1), dtype=np.int64)  # column -> row, 0 = free
    way = np.zeros((count, n + 1), dtype=np.int64)
    for i in range(1, n + 1):
        p[:, 0] = i
        j0 = np.zeros(count, dtype=np.int64)
        # Potentials move by the running sum t of the search's steps: the
        # rows and columns that join the tree at time t_r, t_c gain
        # t_end - t_r and lose t_end - t_c, settled when the search ends.
        # Until then slacks read only potentials from before the search,
        # and minv is kept as minv + t, which the step leaves alone.
        t = np.zeros(count, dtype=np.int64)
        t_row = np.full((count, n + 1), -1, dtype=np.int64)
        t_col = np.full((count, n + 1), -1, dtype=np.int64)
        minv = np.full((count, n + 1), _OPEN, dtype=np.int64)
        searching = np.ones(count, dtype=bool)
        while True:
            t_col[rows, j0] = t
            i0 = p[rows, j0]
            t_row[rows, i0] = t
            free = t_col < 0
            cur = c[rows, i0] - (u[rows, i0] - t)[:, None] - v
            better = free & (cur < minv)
            minv = np.where(better, cur, minv)
            way = np.where(better, j0[:, None], way)
            slack = np.where(free, minv, _OPEN)
            j1 = slack.argmin(axis=1)
            t = np.where(searching, slack[rows, j1], t)
            j0 = np.where(searching, j1, j0)
            searching &= p[rows, j0] != 0
            if not searching.any():
                break
        u += np.where(t_row >= 0, t[:, None] - t_row, 0)
        v -= np.where(t_col >= 0, t[:, None] - t_col, 0)
        # flip the alternating path back from the free column reached
        live = rows
        while live.size:
            jl = j0[live]
            j1 = way[live, jl]
            p[live, jl] = p[live, j1]
            j0[live] = j1
            live = live[j1 != 0]
    row_to_col = np.empty((count, n), dtype=np.int64)
    row_to_col[rows[:, None], p[:, 1:] - 1] = np.arange(n)
    return row_to_col, u[:, 1:], v[:, 1:]


def interval_members(dist_x, dist_y, dxy):
    """Vertices z with d(x,z) + d(z,y) = d(x,y), as an int32 array."""
    on_geodesic = (dist_x >= 0) & (dist_y >= 0) & (dist_x + dist_y == dxy)
    return np.flatnonzero(on_geodesic).astype(np.int32)
