"""Bakry-Emery Gamma-calculus and normalized infinity-curvature.

The curvature at x is the best constant K with Gamma2(f)(x) >= K Gamma(f)(x)
for all f.  Both forms live on the 2-ball B2(x), on the basis
[x] + S1(x) + S2(x), and are assembled from the adjacency block
B1(x) x B2(x), which the S1 out-degrees, the upper bound and the S1''
weights read too.  :func:`be_curvatures` groups the vertices by ball shape
(|B1(x)|, |B2(x)|) and sweeps each group in blocks of (B, m, m) stacks;
every float operation on one vertex's slice is the one a single-vertex
pass makes, so no value depends on the grouping.  Gamma2 scatters
sum_y Gamma(y)/d_x into -Gamma(x) with one unbuffered ``np.add.at`` over y
in S1 order, so each entry takes the float additions of a per-neighbour
matrix sum in that order: ``bakry-emery gosset`` prints the conjecture
margin 7.77156117238e-16, the round-off of an exact zero, and any other
order changes those bytes.  Fixing f(x) = 0 (both forms are shift
invariant) and eliminating S2(x) by a Schur complement leaves a smallest
eigenvalue on S1(x), the one route to the value.  The S2 x S2 block of
Gamma2 is diagonal, d_z = (1/(4 d_x)) sum_{y in S1(x), y ~ z} 1/d_y > 0
(the curvature-matrix reduction of arXiv 1606.01496), so the complement
needs no eigen-solve: one stacked ``eigvalsh`` per block gives the values,
and the PSD bisection that cross-checks them on the same forms is a test
oracle.

Form matrices are floats assembled from exact rational Laplacian entries;
sharpness verdicts use a 1e-7 tolerance.  The upper bound
(3 + D - av_1^+(x)) / (2D) = 2/D + #triangles(x)/D^2 is exact rational,
and the conjecture scan reads its weak bound off the rows' upper bounds.
Every quantity here is computed inside :func:`be_curvatures` or the scan;
the bisection, the one-vertex Schur pass and the exact Gamma and Gamma2
evaluators in Fractions, which check the value and the forms, are test
oracles (``tests/helpers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BadParam, FormCheckFailed, IsolatedVertex
from .graphs import Graph, distances, require_connected, require_regular, triangle_count_vertex

SHARP_TOL = 1e-7
# form entries per block of a sweep: B vertices of ball size m stack B m^2
_FORM_BLOCK = 1 << 14
Partition = tuple[list[int], int, np.ndarray]  # basis, |B1(x)|, B1(x) x B2(x) block
Forms = tuple[list[list[int]], int, np.ndarray, np.ndarray]  # bases, |S1|, Gamma, Gamma2 stacks


# -- form matrices ------------------------------------------------------------

def _ball_partition(g: Graph, x: int) -> Partition:
    """The basis [x] + S1 + S2 of B2(x), with the sorted spheres of a local
    BFS; |B1(x)|; and the adjacency block B1(x) x B2(x), the module's one
    read of the dense adjacency."""
    s1 = sorted(g.adjacency[x])
    ball = [x, *s1]
    s2 = sorted({z for y in s1 for z in g.adjacency[y]} - set(ball))
    return ball + s2, len(ball), g.dense_adjacency[np.ix_(ball, ball + s2)]


def _out_degrees(adj: np.ndarray, k: int) -> np.ndarray:
    """The S1 out-degrees in S1 order of each (|B1|, |B2|) adjacency block
    in the stack: the block's rows summed over S2."""
    return adj[:, 1:, k:].sum(axis=2)


def _stacked_forms(bases: list[list[int]], k: int, adj: np.ndarray) -> Forms:
    """(bases, |S1|, Gamma, Gamma2) over each basis ``[x] + S1 + S2`` of a
    block of vertices with one ball shape, read off the (B, |B1|, |B2|)
    stack of their adjacency blocks B1(x) x B2(x): Gamma(., .)(w) for w in
    B1(x) and the Laplacian rows of B1(x) touch no vertex outside B2(x)."""
    nb, _, m = adj.shape
    deg = adj.sum(axis=2)
    # Laplacian rows of B1(x); the rows of S2 never meet the Gamma form at x
    lap = np.zeros((nb, m, m), dtype=np.float64)
    lap[:, :k] = adj / deg[:, :, None]
    lap[:, range(k), range(k)] = -1.0
    gx = np.zeros((nb, m, m), dtype=np.float64)
    gx[:, range(1, k), range(1, k)] = 1.0
    gx[:, 0, 1:k] = gx[:, 1:k, 0] = -1.0
    gx[:, 0, 0] = deg[:, 0]
    gx /= 2.0 * deg[:, :1, None]
    # sum_y Gamma(y)/d_x, scattered y by y in S1 order: (z, z), (z, y),
    # (y, z), then (y, y), so each entry sees the float additions of one
    # m x m matrix per y added in turn; the stack's row (vertex, y) is the key
    v, r, z = np.nonzero(adj[:, 1:])
    y, key = r + 1, v * (k - 1) + r
    w = 1.0 / (2.0 * deg[v, y]) / deg[v, 0]
    rows = np.arange(nb * (k - 1))
    vy, ys = rows // (k - 1), rows % (k - 1) + 1
    order = np.argsort(np.concatenate((key, key, key, rows)), kind="stable")
    at = np.hstack(((v, z, z), (v, z, y), (v, y, z), (vy, ys, ys)))[:, order]
    vals = np.concatenate((w, -w, -w, deg[vy, ys] / (2.0 * deg[vy, ys]) / deg[vy, 0]))[order]
    acc = 0.0 - gx  # M[x, x] = -1 term of Delta Gamma, with +0.0 zeros
    np.add.at(acc, tuple(at), vals)
    # Gamma(x) vanishes off B1(x) x B1(x), so Gamma(x) @ Lap is zero off
    # the B1(x) rows and Lap^T @ Gamma(x) off the B1(x) columns.  The second
    # product keeps its full inner dimension m: with a shorter one, some
    # OpenBLAS kernels (Haswell, Nehalem) sum the x column in another order
    # and the last bits of Gamma2's x row move
    acc[:, :k] -= gx[:, :k, :k] @ lap[:, :k]
    acc[:, :, :k] -= lap.transpose(0, 2, 1) @ gx[:, :, :k]
    acc *= 0.5
    g2 = acc + acc.transpose(0, 2, 1)
    g2 *= 0.5
    return bases, k - 1, gx, g2


# -- curvature ----------------------------------------------------------------

@dataclass(frozen=True)
class BEReport:
    vertex: int
    curvature: float
    upper_bound: Optional[Fraction]
    is_sharp: bool
    s1_out_regular: Optional[bool]
    s1pp_lambda1: Optional[float]


def _curvature_schur(forms: Forms) -> np.ndarray:
    """The curvature of each vertex of the block: with f(x) = 0 fixed (both
    forms are invariant under adding constants) Gamma is I / 2D on S1(x),
    so K = 2D lambda_min of the Schur complement of the S2 block in Gamma2;
    the degree D of x is |S1(x)|."""
    ds, b = forms[1], forms[3][:, 1:, 1:]
    b11, b12, b22 = b[:, :ds, :ds], b[:, :ds, ds:], b[:, ds:, ds:]
    # Gamma(y) pairs no two 2-sphere vertices, so the S2 block is its
    # diagonal, and every z in S2(x) has a neighbour y in S1(x)
    d = np.diagonal(b22, axis1=1, axis2=2)
    if not (d > 0).all() or np.count_nonzero(b22) != d.size:
        raise FormCheckFailed("the S2 block is not an exact positive diagonal")
    # times the reciprocals 1/d: dividing by d rounds differently, and the
    # printed values (Gosset's conjecture margin among them) would move
    q = b11 - (b12 * (1.0 / d)[:, None, :]) @ b12.transpose(0, 2, 1)
    return 2.0 * ds * np.linalg.eigvalsh(0.5 * (q + q.transpose(0, 2, 1))).min(axis=1)


def be_curvature(g: Graph, x: int) -> BEReport:
    """:func:`be_curvatures` at the one vertex x."""
    return be_curvatures(g, [x])[0]


def be_curvatures(g: Graph, xs: Iterable[int]) -> list[BEReport]:
    """Normalized Bakry-Emery infinity-curvature with sharpness data at each
    vertex of ``xs``, in that order.

    Everything at x is read off the 2-ball B2(x), so the rest of the graph,
    and whether it is connected, does not matter.  The vertices are
    grouped by ball shape (|B1(x)|, |B2(x)|), and a group's forms are
    assembled, once, as stacks of at most ``_FORM_BLOCK`` entries, one
    block at a time.  The upper bound and the S1'' test are criteria for
    D-regular graphs: None off one.
    """
    xs = list(xs)
    for x in xs:
        if g.degree(x) == 0:
            raise IsolatedVertex(f"Bakry-Emery curvature is not defined at isolated vertex {x}")
    rows: list[Optional[BEReport]] = [None] * len(xs)
    pending: dict[tuple[int, int], list[tuple[int, Partition]]] = {}
    for i, x in enumerate(xs):
        part = _ball_partition(g, x)
        k, m = part[1], len(part[0])
        block = pending.setdefault((k, m), [])
        block.append((i, part))
        if len(block) >= max(1, _FORM_BLOCK // (m * m)):
            _sweep(g, pending.pop((k, m)), rows)
    for block in pending.values():
        _sweep(g, block, rows)
    return rows


def _sweep(g: Graph, block: list[tuple[int, Partition]], rows: list) -> None:
    """Write the reports of one block of same-shape partitions into ``rows``
    at their positions."""
    bases = [part[0] for _, part in block]
    k = block[0][1][1]  # |B1(x)|, the same for the whole block
    adj = np.stack([part[2] for _, part in block])
    curvatures = _curvature_schur(_stacked_forms(bases, k, adj)).tolist()
    if g.is_regular() is not None:
        out = _out_degrees(adj, k)
        uppers = [_upper_bound(g, basis[0], o) for basis, o in zip(bases, out)]
        s1pp = _s1pp_tests(adj, k, out)
    else:
        uppers, s1pp = [None] * len(block), [(None, None)] * len(block)
    for (i, _), basis, kx, upper, (s1_reg, lam1) in zip(block, bases, curvatures, uppers, s1pp):
        rows[i] = BEReport(
            vertex=basis[0], curvature=kx, upper_bound=upper,
            is_sharp=upper is not None and abs(kx - float(upper)) < SHARP_TOL,
            s1_out_regular=s1_reg, s1pp_lambda1=lam1,
        )


def _upper_bound(g: Graph, x: int, out: np.ndarray) -> Fraction:
    """Exact upper bound 2/D + #triangles(x)/D^2 for a D-regular graph.

    Also evaluated as (3 + D - av_1^+(x)) / (2D), with the mean out-degree
    av_1^+(x) of the 1-sphere read off the S1 out-degrees ``out`` of x;
    the two expressions must agree.
    """
    deg = require_regular(g)
    tri = triangle_count_vertex(g, x)
    via_triangles = Fraction(2, deg) + Fraction(tri, deg * deg)
    av_plus = Fraction(int(out.sum()), len(out))
    via_average = (3 + deg - av_plus) / (2 * deg)
    if via_triangles != via_average:
        raise FormCheckFailed("upper bound expressions disagree")
    return via_triangles


def _s1pp_weights(adj: np.ndarray, k: int) -> np.ndarray:
    """The S1'' weights A[S1, S1] + (B / colsum(B)) B^T, B = A[S1, S2], off
    the diagonal, of each adjacency block in the stack."""
    b = adj[:, 1:, k:]
    w = adj[:, 1:, 1:k] + (b / b.sum(axis=1, keepdims=True)) @ b.transpose(0, 2, 1)
    w[:, range(k - 1), range(k - 1)] = 0.0
    return w


def _s1pp_tests(adj: np.ndarray, k: int, out: np.ndarray) -> list[tuple[bool, Optional[float]]]:
    """(applicable, lambda1) for the weighted 1-sphere Laplacian test at
    each vertex of the block, from its adjacency block and S1 out-degrees.

    Applicable only at S1-out regular vertices.  The weighted graph S1''(x)
    carries the induced 1-sphere edges plus weights
    w'(y, y') = sum_z w(y, z) w(z, y') / d_x^-(z) over z in the 2-sphere;
    the vertex is infinity-curvature sharp iff the smallest nonzero
    eigenvalue of its Laplacian is at least D/2.
    """
    applicable = (out == out[:, :1]).all(axis=1)
    lam1: list[Optional[float]] = [None] * len(adj)
    if applicable.any():
        w = _s1pp_weights(adj[applicable], k)
        # diag(rowsum) - w, as 0.0 - w off the diagonal: -w would leave -0.0
        lap = np.zeros_like(w)
        lap[:, range(k - 1), range(k - 1)] = w.sum(axis=2)
        lap -= w
        for i, eigs in zip(np.flatnonzero(applicable), np.linalg.eigvalsh(lap)):
            nonzero = eigs[eigs > 1e-9]
            lam1[i] = float(nonzero[0]) if nonzero.size else None
    return list(zip(applicable.tolist(), lam1))


@dataclass(frozen=True)
class ConjectureReport:
    """Instance evidence for the diameter upper bound on the curvature infimum."""

    inf_curvature: float
    argmin_vertex: int
    bound: Fraction
    margin: float
    holds: bool
    weak_bound: Fraction
    weak_holds: bool


def conjecture_scan(g: Graph, rows: Sequence[BEReport]) -> ConjectureReport:
    """Compare inf_x K(x) against 1/D + 1/L and the weaker certified bound
    1/D + 1/L + max_x #triangles(x)/(2 D^2).

    ``rows[x]`` is :func:`be_curvatures`'s report at vertex x.  Its exact
    upper bound u(x) = 2/D + #triangles(x)/D^2 gives the weak bound's
    last term as (u(x) - 2/D)/2, so no triangle is counted twice.
    """
    require_connected(g)
    deg = require_regular(g)
    if len(rows) != g.n:
        raise BadParam(f"{len(rows)} Bakry-Emery rows for {g.n} vertices")
    inf_val, argmin = min((r.curvature, r.vertex) for r in rows)
    bound = Fraction(1, deg) + Fraction(1, distances(g).diameter)
    weak = bound + max(r.upper_bound - Fraction(2, deg) for r in rows) / 2
    margin = float(bound) - inf_val
    return ConjectureReport(
        inf_curvature=inf_val,
        argmin_vertex=argmin,
        bound=bound,
        margin=margin,
        holds=margin >= -SHARP_TOL,
        weak_bound=weak,
        weak_holds=(float(weak) - inf_val) >= -SHARP_TOL,
    )
