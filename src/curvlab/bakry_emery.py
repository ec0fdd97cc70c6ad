"""Bakry-Emery Gamma-calculus and normalized infinity-curvature.

The curvature at x is the best constant K with Gamma2(f)(x) >= K Gamma(f)(x)
for all f.  Both forms live on the 2-ball B2(x), on the basis
[x] + S1(x) + S2(x), and are assembled once per vertex from the adjacency
block B1(x) x B2(x), which the S1 out-degrees, the upper bound and the S1''
weights read too.  Gamma2 scatters sum_y Gamma(y)/d_x into -Gamma(x) with
one unbuffered ``np.add.at`` over y in S1 order, so each entry takes the
float additions of a per-neighbour matrix sum in that order: ``bakry-emery
gosset`` prints the conjecture margin 7.77156117238e-16, the round-off of an
exact zero, and any other order changes those bytes.  Fixing f(x) = 0 (both
forms are shift invariant) and eliminating S2(x) by a Schur complement
leaves a smallest eigenvalue on S1(x), the one route to the value; the PSD
bisection that cross-checks it on the same forms is a test oracle.

Form matrices are floats assembled from exact rational Laplacian entries;
sharpness verdicts use a 1e-7 tolerance.  The upper bound
(3 + D - av_1^+(x)) / (2D) = 2/D + #triangles(x)/D^2 is exact rational,
and the conjecture scan reads its weak bound off the rows' upper bounds.
Every quantity here is computed inside :func:`be_curvature` or the scan;
the bisection and the exact Gamma and Gamma2 evaluators in Fractions, which
check the value and the forms, are test oracles (``tests/helpers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import BadParam, FormCheckFailed, IsolatedVertex
from .graphs import Graph, distances, require_connected, require_regular, triangle_count_vertex

SHARP_TOL = 1e-7
Partition = tuple[list[int], int, np.ndarray]  # basis, |B1(x)|, B1(x) x B2(x) block
Forms = tuple[list[int], int, np.ndarray, np.ndarray]  # basis, |S1|, Gamma, Gamma2


# -- form matrices ------------------------------------------------------------

def _ball_partition(g: Graph, x: int) -> Partition:
    """The basis [x] + S1 + S2 of B2(x), with the sorted spheres of a local
    BFS; |B1(x)|; and the adjacency block B1(x) x B2(x), the module's one
    read of the dense adjacency."""
    s1 = sorted(g.adjacency[x])
    ball = [x, *s1]
    s2 = sorted({z for y in s1 for z in g.adjacency[y]} - set(ball))
    return ball + s2, len(ball), g.dense_adjacency[np.ix_(ball, ball + s2)]


def _out_degrees(part: Partition) -> np.ndarray:
    """The S1 out-degrees in S1 order: the block's rows summed over S2."""
    return part[2][1:, part[1] :].sum(axis=1)


def _local_forms(part: Partition) -> Forms:
    """(basis, |S1|, Gamma, Gamma2) at x over the basis ``[x] + S1 + S2`` of
    B2(x), read off the partition's adjacency block B1(x) x B2(x):
    Gamma(., .)(w) for w in B1(x) and the Laplacian rows of B1(x) touch no
    vertex outside B2(x)."""
    basis, k, adj = part
    m = len(basis)
    deg = adj.sum(axis=1)
    # Laplacian rows of B1(x); the rows of S2 never meet the Gamma form at x
    lap = np.zeros((m, m), dtype=np.float64)
    lap[:k] = adj / deg[:, None]
    lap[range(k), range(k)] = -1.0
    gx = np.zeros((m, m), dtype=np.float64)
    gx[range(1, k), range(1, k)] = 1.0
    gx[0, 1:k] = gx[1:k, 0] = -1.0
    gx[0, 0] = deg[0]
    gx /= 2.0 * deg[0]
    # sum_y Gamma(y)/d_x, scattered y by y in S1 order: (z, z), (z, y),
    # (y, z), then (y, y), so each entry sees the float additions of one
    # m x m matrix per y added in turn
    r, z = np.nonzero(adj[1:])
    y, ys = r + 1, np.arange(1, k)
    w = 1.0 / (2.0 * deg[y]) / deg[0]
    order = np.argsort(np.concatenate((r, r, r, ys - 1)), kind="stable")
    rows, cols = np.hstack(((z, z), (z, y), (y, z), (ys, ys)))[:, order]
    vals = np.concatenate((w, -w, -w, deg[1:] / (2.0 * deg[1:]) / deg[0]))[order]
    acc = 0.0 - gx  # M[x, x] = -1 term of Delta Gamma, with +0.0 zeros
    np.add.at(acc, (rows, cols), vals)
    b = 0.5 * (acc - gx @ lap - lap.T @ gx)
    return basis, k - 1, gx, 0.5 * (b + b.T)


# -- curvature ----------------------------------------------------------------

@dataclass(frozen=True)
class BEReport:
    vertex: int
    curvature: float
    upper_bound: Optional[Fraction]
    is_sharp: bool
    s1_out_regular: Optional[bool]
    s1pp_lambda1: Optional[float]


def _curvature_schur(forms: Forms) -> float:
    # fix f(x) = 0: both forms are invariant under adding constants; the
    # degree D of x is |S1(x)|
    ds, b = forms[1], forms[3][1:, 1:]
    b11, b12, b22 = b[:ds, :ds], b[:ds, ds:], b[ds:, ds:]
    if b22.size:
        evals, evecs = np.linalg.eigh(b22)
        if evals.min() < -1e-8:
            raise FormCheckFailed("Gamma2 block over the 2-sphere is not PSD")
        inv = np.where(evals > 1e-11, 1.0 / np.maximum(evals, 1e-300), 0.0)
        pinv = (evecs * inv) @ evecs.T
        residual = b22 @ pinv @ b12.T - b12.T
        if np.abs(residual).max() > 1e-7:
            raise FormCheckFailed("Gamma2 cross block escapes the range of its kernel block")
        q = b11 - b12 @ pinv @ b12.T
    else:
        q = b11
    lam_min = float(np.linalg.eigvalsh(0.5 * (q + q.T)).min())
    return 2.0 * ds * lam_min


def be_curvature(g: Graph, x: int) -> BEReport:
    """Normalized Bakry-Emery infinity-curvature at x with sharpness data.

    Everything is read off the 2-ball B2(x), so the rest of the graph, and
    whether it is connected, does not matter.  The forms are assembled
    once, for the Schur pass.  The upper bound and the S1'' test are
    criteria for D-regular graphs: None off one.
    """
    if g.degree(x) == 0:
        raise IsolatedVertex(f"Bakry-Emery curvature is not defined at isolated vertex {x}")
    part = _ball_partition(g, x)
    k = _curvature_schur(_local_forms(part))
    regular = g.is_regular() is not None
    upper = _upper_bound(g, x, part) if regular else None
    s1_reg, lam1 = _s1pp_test(part) if regular else (None, None)
    sharp = upper is not None and abs(k - float(upper)) < SHARP_TOL
    return BEReport(
        vertex=x, curvature=k, upper_bound=upper, is_sharp=sharp,
        s1_out_regular=s1_reg, s1pp_lambda1=lam1,
    )


def _upper_bound(g: Graph, x: int, part: Partition) -> Fraction:
    """Exact upper bound 2/D + #triangles(x)/D^2 for a D-regular graph.

    Also evaluated as (3 + D - av_1^+(x)) / (2D), with the mean out-degree
    av_1^+(x) of the 1-sphere read off the ball's adjacency block; the two
    expressions must agree.
    """
    deg = require_regular(g)
    tri = triangle_count_vertex(g, x)
    via_triangles = Fraction(2, deg) + Fraction(tri, deg * deg)
    av_plus = Fraction(int(_out_degrees(part).sum()), part[1] - 1)
    via_average = (3 + deg - av_plus) / (2 * deg)
    if via_triangles != via_average:
        raise FormCheckFailed("upper bound expressions disagree")
    return via_triangles


def _s1pp_weights(part: Partition) -> np.ndarray:
    """The S1'' weights A[S1, S1] + (B / colsum(B)) B^T, B = A[S1, S2], off the diagonal."""
    _, k, adj = part
    b = adj[1:, k:]
    w = adj[1:, 1:k] + (b / b.sum(axis=0)) @ b.T
    np.fill_diagonal(w, 0.0)
    return w


def _s1pp_test(part: Partition) -> tuple[bool, Optional[float]]:
    """(applicable, lambda1) for the weighted 1-sphere Laplacian test.

    Applicable only at S1-out regular vertices.  The weighted graph S1''(x)
    carries the induced 1-sphere edges plus weights
    w'(y, y') = sum_z w(y, z) w(z, y') / d_x^-(z) over z in the 2-sphere;
    the vertex is infinity-curvature sharp iff the smallest nonzero
    eigenvalue of its Laplacian is at least D/2.
    """
    if len(set(_out_degrees(part).tolist())) != 1:
        return False, None
    w = _s1pp_weights(part)
    lap = np.diag(w.sum(axis=1)) - w
    eigs = np.sort(np.linalg.eigvalsh(lap))
    nonzero = eigs[eigs > 1e-9]
    return True, float(nonzero[0]) if nonzero.size else None


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

    ``rows[x]`` is :func:`be_curvature`'s report at vertex x.  Its exact
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
