"""Bakry-Emery Gamma-calculus and normalized infinity-curvature.

The curvature at x is the best constant K with Gamma2(f)(x) >= K Gamma(f)(x)
for all f.  Both forms live on the 2-ball B2(x); fixing f(x) = 0 (both are
shift invariant) makes Gamma the identity over 2D on S1(x), and the S2 x S2
block of Gamma2 is diagonal and positive, so each f(z), z in S2(x), is
eliminated by hand.  What is left is the |S1| x |S1| curvature matrix Q(x)
of Cushing-Liu-Peyerimhoff (arXiv 1606.01496), with K(x) = lambda_min(Q)/2,
written out for the normalized Laplacian at any degrees.  With
A11 = A[S1, S1], B = A[S1, S2], t_y and o_y the neighbour counts of y in S1
and S2, w_y = D/d_y, C' = (w_y + w_y') A11, V = diag(w) B and
s'_z = sum_y V[y, z] > 0,

    D Q = 2J - 2C' - 4 V diag(1/s') V^T + diag((3 + 2t + 3o) w - D + C'1),

and K = lambda_min(D Q) / 2D.  The degree scaling keeps the entries exact
where they can be: on a D-regular graph w = 1, so only the terms 4/s'_z can
round, and on the hypercube Q_n the float matrix is exactly 4I and K is
float(2/n).  Everything is read off the adjacency block B1(x) x B2(x), as
are the S1 out-degrees, the triangles at x (half the sum of A11), the
upper bound and the S1'' weights.
:func:`be_curvatures` groups the vertices by ball shape (|B1(x)|, |B2(x)|)
and sweeps each group in blocks, with one stacked ``eigvalsh`` for the
curvature matrices per block; every float operation on one vertex's slice
is the one a single-vertex pass makes, so no value depends on the grouping.

Sharpness verdicts use a 1e-7 tolerance.  The upper bound
(3 + D - av_1^+(x)) / (2D) = 2/D + #triangles(x)/D^2 is exact rational,
and the conjecture scan reads its weak bound off the rows' upper bounds.
Every quantity here is computed inside :func:`be_curvatures` or the scan;
the Gamma and Gamma2 forms on B2(x), their Schur pass and PSD bisection,
and the exact Gamma and Gamma2 evaluators in Fractions, which check the
closed form, are test oracles (``tests/helpers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BadParam, FormCheckFailed, IsolatedVertex
from .graphs import Graph, distances, require_connected, require_regular

SHARP_TOL = 1e-7
# adjacency entries per block of a sweep: B vertices of ball shape (k, m)
# stack B k m, the largest arrays of the closed form
_SWEEP_BLOCK = 1 << 14
Partition = tuple[list[int], int, np.ndarray]  # basis, |B1(x)|, B1(x) x B2(x) block


# -- curvature matrix ---------------------------------------------------------

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


def _triangles(adj: np.ndarray, k: int) -> np.ndarray:
    """#triangles(x) of each (|B1|, |B2|) adjacency block in the stack: half
    the sum of its A[S1, S1] block, which counts each edge of S1 twice."""
    return (adj[:, 1:, 1:k].sum(axis=(1, 2)) / 2).astype(np.int64)


def _curvature_matrices(adj: np.ndarray, k: int) -> np.ndarray:
    """D Q(x), as in the module docstring, for each (|B1|, |B2|) adjacency
    block in the stack; D = k - 1 is the degree of x."""
    deg = k - 1
    a11, b = adj[:, 1:, 1:k], adj[:, 1:, k:]
    t, o = a11.sum(axis=2), b.sum(axis=2)
    w = deg / (1.0 + t + o)
    c = (w[:, :, None] + w[:, None, :]) * a11
    v = w[:, :, None] * b
    dq = 2.0 - 2.0 * c - 4.0 * (v / v.sum(axis=1, keepdims=True)) @ v.transpose(0, 2, 1)
    dq[:, range(deg), range(deg)] += (3.0 + 2.0 * t + 3.0 * o) * w - deg + c.sum(axis=2)
    return dq


# -- curvature ----------------------------------------------------------------

@dataclass(frozen=True)
class BEReport:
    vertex: int
    curvature: float
    upper_bound: Optional[Fraction]
    is_sharp: bool
    s1_out_regular: Optional[bool]
    s1pp_lambda1: Optional[float]


def be_curvature(g: Graph, x: int) -> BEReport:
    """:func:`be_curvatures` at the one vertex x."""
    return be_curvatures(g, [x])[0]


def be_curvatures(g: Graph, xs: Iterable[int]) -> list[BEReport]:
    """Normalized Bakry-Emery infinity-curvature with sharpness data at each
    vertex of ``xs``, in that order.

    Everything at x is read off the 2-ball B2(x), so the rest of the graph,
    and whether it is connected, does not matter.  The vertices are
    grouped by ball shape (|B1(x)|, |B2(x)|), and a group's curvature
    matrices are built from stacks of at most ``_SWEEP_BLOCK`` adjacency
    entries, one block at a time.  The upper bound and the S1'' test are criteria for
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
        if len(block) >= max(1, _SWEEP_BLOCK // (k * m)):
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
    curvatures = (np.linalg.eigvalsh(_curvature_matrices(adj, k))[:, 0] / (2.0 * (k - 1))).tolist()
    if g.is_regular() is not None:
        out = _out_degrees(adj, k)
        uppers = [_upper_bound(k - 1, tri, o) for tri, o in zip(_triangles(adj, k).tolist(), out)]
        s1pp = _s1pp_tests(adj, k, out)
    else:
        uppers, s1pp = [None] * len(block), [(None, None)] * len(block)
    for (i, _), basis, kx, upper, (s1_reg, lam1) in zip(block, bases, curvatures, uppers, s1pp):
        rows[i] = BEReport(
            vertex=basis[0], curvature=kx, upper_bound=upper,
            is_sharp=upper is not None and abs(kx - float(upper)) < SHARP_TOL,
            s1_out_regular=s1_reg, s1pp_lambda1=lam1,
        )


def _upper_bound(deg: int, tri: int, out: np.ndarray) -> Fraction:
    """Exact upper bound 2/D + #triangles(x)/D^2 at a vertex x of a
    D-regular graph with ``tri`` triangles.

    Also evaluated as (3 + D - av_1^+(x)) / (2D), with the mean out-degree
    av_1^+(x) of the 1-sphere read off the S1 out-degrees ``out`` of x;
    the two expressions must agree.
    """
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
