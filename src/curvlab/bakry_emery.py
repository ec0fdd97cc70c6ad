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
float(2/n).  Everything is read off the adjacency block A[S1, S1 + S2] of
:func:`curvlab.graphs._ball_runs`, as are the S1 out-degrees, the
triangles at x (half the sum of A11), the upper bound and the S1''
weights.  :func:`be_curvatures` sweeps each group of one ball shape
(|S1(x)|, |S2(x)|) in a run of the reader as one stack, with one stacked
``eigvalsh`` for its curvature matrices; every float operation on one
vertex's slice is the one a single-vertex pass makes, so no value depends
on the runs or groups.

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
from .graphs import Graph, _ball_runs, distances, require_connected, require_regular

SHARP_TOL = 1e-7


# -- curvature matrix ---------------------------------------------------------

def _out_degrees(adj: np.ndarray) -> np.ndarray:
    """The S1 out-degrees in S1 order of each A[S1, S1 + S2] block in the
    stack: the block's rows summed over S2."""
    return adj[:, :, adj.shape[1]:].sum(axis=2)


def _triangles(adj: np.ndarray) -> np.ndarray:
    """#triangles(x) of each A[S1, S1 + S2] block in the stack: half the sum
    of its A[S1, S1] block, which counts each edge of S1 twice."""
    return (adj[:, :, : adj.shape[1]].sum(axis=(1, 2)) / 2).astype(np.int64)


def _curvature_matrices(adj: np.ndarray) -> np.ndarray:
    """D Q(x), as in the module docstring, for each A[S1, S1 + S2] block in
    the stack; D = |S1| is the degree of x."""
    deg = adj.shape[1]
    a11, b = adj[:, :, :deg], adj[:, :, deg:]
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
    and whether it is connected, does not matter.  The blocks
    A[S1(x), S1(x) + S2(x)] come from :func:`curvlab.graphs._ball_runs`,
    and each group of one ball shape in a run is swept as one stack.  The
    upper bound and the S1'' test are criteria for D-regular graphs: None
    off one.
    """
    xs = list(xs)
    for x in xs:
        if g.degree(x) == 0:
            raise IsolatedVertex(f"Bakry-Emery curvature is not defined at isolated vertex {x}")
    rows: list[Optional[BEReport]] = [None] * len(xs)
    for run in _ball_runs(g, xs):
        for pos, _, adj in run:
            for i, row in zip(pos.tolist(), _sweep(g, [xs[i] for i in pos], adj)):
                rows[i] = row
    return rows


def _sweep(g: Graph, vertices: list[int], adj: np.ndarray) -> list[BEReport]:
    """The reports at ``vertices``, one ball shape, from the stack ``adj``
    of their A[S1, S1 + S2] blocks."""
    deg = adj.shape[1]
    curvatures = (np.linalg.eigvalsh(_curvature_matrices(adj))[:, 0] / (2.0 * deg)).tolist()
    if g.is_regular() is not None:
        out = _out_degrees(adj)
        uppers = [_upper_bound(deg, tri, o) for tri, o in zip(_triangles(adj).tolist(), out)]
        s1pp = _s1pp_tests(adj, out)
    else:
        uppers, s1pp = [None] * len(vertices), [(None, None)] * len(vertices)
    return [
        BEReport(
            vertex=x, curvature=kx, upper_bound=upper,
            is_sharp=upper is not None and abs(kx - float(upper)) < SHARP_TOL,
            s1_out_regular=s1_reg, s1pp_lambda1=lam1,
        )
        for x, kx, upper, (s1_reg, lam1) in zip(vertices, curvatures, uppers, s1pp)
    ]


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


def _s1pp_weights(adj: np.ndarray) -> np.ndarray:
    """The S1'' weights A[S1, S1] + (B / colsum(B)) B^T, B = A[S1, S2], off
    the diagonal, of each A[S1, S1 + S2] block in the stack."""
    deg = adj.shape[1]
    b = adj[:, :, deg:]
    w = adj[:, :, :deg] + (b / b.sum(axis=1, keepdims=True)) @ b.transpose(0, 2, 1)
    w[:, range(deg), range(deg)] = 0.0
    return w


def _s1pp_tests(adj: np.ndarray, out: np.ndarray) -> list[tuple[bool, Optional[float]]]:
    """(applicable, lambda1) for the weighted 1-sphere Laplacian test at
    each vertex of the stack, from its A[S1, S1 + S2] block and S1
    out-degrees.

    Applicable only at S1-out regular vertices.  The weighted graph S1''(x)
    carries the induced 1-sphere edges plus weights
    w'(y, y') = sum_z w(y, z) w(z, y') / d_x^-(z) over z in the 2-sphere;
    the vertex is infinity-curvature sharp iff the smallest nonzero
    eigenvalue of its Laplacian is at least D/2.
    """
    applicable = (out == out[:, :1]).all(axis=1)
    lam1: list[Optional[float]] = [None] * len(adj)
    if applicable.any():
        w = _s1pp_weights(adj[applicable])
        deg = adj.shape[1]
        # diag(rowsum) - w, as 0.0 - w off the diagonal: -w would leave -0.0
        lap = np.zeros_like(w)
        lap[:, range(deg), range(deg)] = w.sum(axis=2)
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
