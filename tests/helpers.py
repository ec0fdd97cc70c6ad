"""Independent oracles and generators used across the test suite.

These deliberately avoid the code paths they check: Wasserstein by
exhaustive bijection enumeration or by min-cost flow on the full,
uncancelled supports, the lockstep Hungarian kernel by the one-problem
loop it replaced, perfect matchings by enumerating every all-edge
bijection,
intervals and antipodality by definition scan, Bakry-Emery forms by dense
assembly over the whole vertex set and by one matrix per neighbour, the
Bakry-Emery value by a PSD bisection, the stacked Bakry-Emery sweep by a
one-vertex closed form and by the m x m Schur pass it replaced, the
closed-form curvature matrix by Fractions against the exact Gamma2, S1''
weights by a pair loop, the
distance eigenfunction by the exact normalized Laplacian in Fractions,
intersection arrays by a scan of every ordered vertex pair, isomorphism
and automorphism orbits by permutation enumeration, strong sphericity by
the full row-major interval scan,
cocktail party graphs by their complement and by neighbour sets, mu-graphs
by building each one and by one frozenset intersection per pair, strongly
regular parameters by neighbour sets pair by pair, the small-sphere and
non-clustering properties by a degree triple per 2-sphere vertex and a
count per 1-sphere pair, the 2-ball reader by spheres built from the
adjacency sets, random regular graphs by stub pairing.

The exact Gamma and Gamma2 evaluators, the normalized Laplacian in
Fractions and the Kantorovich duality check, with its ``NotLipschitz``
refusal, live here too: the library never calls them, so they are oracles
of this suite and not part of ``curvlab``.  ``be_upper_bound``,
``s1pp_sharpness_test`` and ``schur_and_bisection`` evaluate one
Bakry-Emery quantity at one vertex, through the private steps that
``be_curvatures`` runs on stacks of vertices, here stacks of one;
``local_forms`` and ``gamma_forms`` do the same through the m x m
assembly ``stacked_forms`` that the closed form replaced.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from dataclasses import dataclass, replace
from itertools import combinations, permutations, product
from typing import Mapping, Optional

import numpy as np

from curvlab import _kernels, bakry_emery, graphs, sharpness
from curvlab.errors import FormCheckFailed, IsolatedVertex, PreconditionError
from curvlab.families import FamilySpec, from_spec
from curvlab.fixtures import FIXTURE_NAMES, load_fixture
from curvlab.graphs import (
    DistanceOracle,
    Graph,
    SrgParams,
    build_graph,
    degree_triple,
    distances,
    mu_graph,
    require_regular,
    triangle_count_vertex,
)
from curvlab.sharpness import LocalSrgVerdict, MuGraphVerdict, SphericalVerdict
from curvlab.transport import Measure, TransportPlan, _transportation

# Slack for "is this matrix PSD" in the bisection; must stay well below
# bakry_emery.SHARP_TOL because an overshoot scales like PSD_TOL divided by
# the Gamma-mass of the critical direction.
PSD_TOL = 1e-11


class NotLipschitz(PreconditionError):
    """A potential handed to ``certify_duality`` is not 1-Lipschitz."""


def normalized_laplacian_apply(g: Graph, f: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """Exact image of f under the normalized Laplacian Delta f(x) =
    (1/d_x) sum_{y ~ x} (f(y) - f(x))."""
    out: dict[int, Fraction] = {}
    for x in range(g.n):
        deg = g.degree(x)
        if deg == 0:
            raise IsolatedVertex(f"vertex {x} is isolated")
        fx = Fraction(f[x])
        acc = Fraction(0)
        for y in g.adjacency[x]:
            acc += Fraction(f[y]) - fx
        out[x] = acc / deg
    return out


def gamma_value(g: Graph, f: Mapping[int, Fraction], h: Mapping[int, Fraction], w: int) -> Fraction:
    """Gamma(f, h)(w) = (1/2d_w) sum_{z ~ w} (f(z)-f(w)) (h(z)-h(w)), exact."""
    deg = g.degree(w)
    acc = Fraction(0)
    fw, hw = Fraction(f[w]), Fraction(h[w])
    for z in g.adjacency[w]:
        acc += (Fraction(f[z]) - fw) * (Fraction(h[z]) - hw)
    return acc / (2 * deg)


def gamma2_value(g: Graph, f: Mapping[int, Fraction], h: Mapping[int, Fraction], x: int) -> Fraction:
    """Gamma2(f, h)(x) by the iterated definition, exact."""
    df = normalized_laplacian_apply(g, f)
    dh = normalized_laplacian_apply(g, h)
    gam = {w: gamma_value(g, f, h, w) for w in range(g.n)}
    dgam = normalized_laplacian_apply(g, gam)
    return (dgam[x] - gamma_value(g, f, dh, x) - gamma_value(g, h, df, x)) / 2


@dataclass(frozen=True)
class QuadraticForm:
    """A symmetric form f |-> f^T matrix f over the listed vertex basis."""

    basis: tuple[int, ...]
    matrix: np.ndarray


def stacked_forms(bases: list[list[int]], k: int, adj: np.ndarray):
    """(bases, |S1|, Gamma, Gamma2) over each basis ``[x] + S1 + S2`` of a
    block of vertices with one ball shape, read off the (B, |B1|, |B2|)
    stack of their adjacency blocks B1(x) x B2(x): the m x m assembly that
    the closed-form curvature matrix replaced.  Gamma(., .)(w) for w in
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
    # the B1(x) rows and Lap^T @ Gamma(x) off the B1(x) columns.  Both
    # products keep their full inner dimension m, as ``ordered_gamma_forms``
    # does: with a shorter one, some OpenBLAS kernels sum in another order
    # and the last bits of Gamma2's x row move (Haswell and Nehalem for the
    # second; the default kernel for the first, on a 7-regular graph of 30
    # vertices)
    acc[:, :k] -= gx[:, :k] @ lap
    acc[:, :, :k] -= lap.transpose(0, 2, 1) @ gx[:, :, :k]
    acc *= 0.5
    g2 = acc + acc.transpose(0, 2, 1)
    g2 *= 0.5
    return bases, k - 1, gx, g2


def ball_block(g: Graph, x: int) -> tuple[list[int], list[int], np.ndarray]:
    """(S1, S2, A[S1, S1 + S2]) at x, from the one run and one group that
    ``graphs._ball_runs`` makes of x alone."""
    (((_, s2, adj),),) = graphs._ball_runs(g, [x])
    return list(g.adjacency[x]), s2[0].tolist(), adj[0]


def ball_basis_block(g: Graph, x: int) -> tuple[list[int], np.ndarray]:
    """The basis ``[x] + S1 + S2`` of B2(x) and the adjacency block
    B1(x) x B2(x) that ``stacked_forms`` reads: ``ball_block`` with the row
    and the column of x put back."""
    s1, s2, adj = ball_block(g, x)
    k = len(s1)
    full = np.zeros((k + 1, k + 1 + len(s2)), dtype=np.float64)
    full[0, 1 : k + 1] = full[1:, 0] = 1.0
    full[1:, 1:] = adj
    return [x, *s1, *s2], full


def local_forms(g: Graph, x: int) -> tuple[list[int], int, np.ndarray, np.ndarray]:
    """(basis, |S1|, Gamma, Gamma2) at x over ``[x] + S1 + S2``, from a
    stack of one vertex of ``stacked_forms``."""
    basis, adj = ball_basis_block(g, x)
    (basis,), ds, gx, g2x = stacked_forms([basis], g.degree(x) + 1, adj[None])
    return basis, ds, gx[0], g2x[0]


def gamma_forms(g: Graph, x: int) -> tuple[QuadraticForm, QuadraticForm]:
    """The Gamma form on B1(x) and the Gamma2 form on B2(x) at x, as
    ``local_forms`` assembles them."""
    basis, ds, gx, g2x = local_forms(g, x)
    return (
        QuadraticForm(basis=tuple(basis[: 1 + ds]), matrix=gx[: 1 + ds, : 1 + ds]),
        QuadraticForm(basis=tuple(basis), matrix=g2x),
    )


def be_upper_bound(g: Graph, x: int) -> Fraction:
    """The exact Bakry-Emery upper bound at x of a D-regular graph, by both
    of ``be_curvatures``'s expressions, which must agree; NotRegular off a
    regular graph."""
    deg = require_regular(g)
    adj = ball_block(g, x)[2][None]
    tri = int(bakry_emery._triangles(adj)[0])
    return bakry_emery._upper_bound(deg, tri, bakry_emery._out_degrees(adj)[0])


def s1pp_sharpness_test(g: Graph, x: int) -> tuple[bool, Optional[float], Optional[bool]]:
    """(applicable, lambda1, passes) of ``be_curvatures``'s weighted
    1-sphere test at x: x passes iff lambda1 >= D/2 within the sharpness
    tolerance, and fails when the S1'' Laplacian has no nonzero eigenvalue."""
    adj = ball_block(g, x)[2][None]
    ((applicable, lam1),) = bakry_emery._s1pp_tests(adj, bakry_emery._out_degrees(adj))
    if not applicable:
        return False, None, None
    return True, lam1, lam1 is not None and lam1 >= g.degree(x) / 2.0 - bakry_emery.SHARP_TOL


def curvature_by_bisection(forms, lo: float, hi: float, iters: int = 60) -> float:
    """Largest K with Gamma2 - K Gamma PSD at x, by bisection on the forms
    ``(basis, |S1|, Gamma, Gamma2)`` of ``local_forms``."""
    # fix f(x) = 0, as in the Schur route
    a, b = forms[2][1:, 1:], forms[3][1:, 1:]

    def psd(k: float) -> bool:
        return float(np.linalg.eigvalsh(b - k * a).min()) >= -PSD_TOL

    if not psd(lo):
        raise FormCheckFailed("bisection lower bound is not PSD")
    while psd(hi):
        lo, hi = hi, hi + (hi - lo + 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if psd(mid) else (lo, mid)
    return lo


def schur_and_bisection(g: Graph, x: int) -> bakry_emery.BEReport:
    """``be_curvature(g, x)``, once the PSD bisection on the forms at x has
    derived its value a second time within the sharpness tolerance;
    ``FormCheckFailed`` if the two values disagree."""
    report = bakry_emery.be_curvature(g, x)
    k = report.curvature
    k_bis = curvature_by_bisection(local_forms(g, x), lo=k - 1.0, hi=k + 1.0)
    if abs(k - k_bis) > bakry_emery.SHARP_TOL:
        raise FormCheckFailed(f"closed-form value {k} and bisection value {k_bis} disagree at {x}")
    return report


def curvature_schur_scalar(forms) -> float:
    """The curvature at one vertex from its forms ``(basis, |S1|, Gamma,
    Gamma2)``, by the one-vertex Schur pass that the stacked sweep
    replaced: a pseudo-inverse of the S2 block from its ``eigh``, with a
    PSD check and a range check on the cross block."""
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


def s1pp_scalar(g: Graph, x: int) -> tuple[bool, Optional[float]]:
    """(applicable, lambda1) of the S1'' test at x, one vertex and one
    ``eigvalsh`` at a time, as the one-vertex pass computed it."""
    s1, _, adj = ball_block(g, x)
    b = adj[:, len(s1) :]
    if len(set(b.sum(axis=1).tolist())) != 1:
        return False, None
    w = adj[:, : len(s1)] + (b / b.sum(axis=0)) @ b.T
    np.fill_diagonal(w, 0.0)
    eigs = np.sort(np.linalg.eigvalsh(np.diag(w.sum(axis=1)) - w))
    nonzero = eigs[eigs > 1e-9]
    return True, float(nonzero[0]) if nonzero.size else None


def _scalar_report(g: Graph, x: int, k: float) -> bakry_emery.BEReport:
    """The report at x with curvature k, the upper bound 2/D + #triangles(x)/D^2
    and ``s1pp_scalar``."""
    deg = g.is_regular()
    if deg is None:
        upper, (s1_reg, lam1) = None, (None, None)
    else:
        upper = Fraction(2, deg) + Fraction(triangle_count_vertex(g, x), deg * deg)
        s1_reg, lam1 = s1pp_scalar(g, x)
    return bakry_emery.BEReport(
        vertex=x, curvature=k, upper_bound=upper,
        is_sharp=upper is not None and abs(k - float(upper)) < bakry_emery.SHARP_TOL,
        s1_out_regular=s1_reg, s1pp_lambda1=lam1,
    )


def be_curvature_scalar(g: Graph, x: int) -> bakry_emery.BEReport:
    """The report at x by the one-vertex Schur route that the closed form
    replaced: the forms of ``ordered_gamma_forms`` and the Schur pass of
    ``curvature_schur_scalar``."""
    return _scalar_report(g, x, curvature_schur_scalar(ordered_gamma_forms(g, x)))


def spheres_by_sets(g: Graph, x: int) -> tuple[list[int], list[int]]:
    """The sorted spheres S1(x) and S2(x), from the adjacency lists."""
    s1 = sorted(g.adjacency[x])
    s2 = sorted({z for y in s1 for z in g.adjacency[y]} - {x, *s1})
    return s1, s2


def curvature_matrix_scalar(g: Graph, x: int) -> np.ndarray:
    """D Q(x) at one vertex in floats, built from the adjacency lists with
    the float operations that ``be_curvatures`` makes on each slice of its
    stacks."""
    s1, s2 = spheres_by_sets(g, x)
    deg = len(s1)
    a11 = np.array([[float(u in g.adjacency[y]) for u in s1] for y in s1]).reshape(deg, deg)
    b = np.array([[float(z in g.adjacency[y]) for z in s2] for y in s1]).reshape(deg, len(s2))
    t, o = a11.sum(axis=1), b.sum(axis=1)
    w = deg / (1.0 + t + o)
    c = (w[:, None] + w[None, :]) * a11
    v = w[:, None] * b
    dq = 2.0 - 2.0 * c - 4.0 * (v / v.sum(axis=0)) @ v.T
    dq[range(deg), range(deg)] += (3.0 + 2.0 * t + 3.0 * o) * w - deg + c.sum(axis=1)
    return dq


def be_closed_form_scalar(g: Graph, x: int) -> bakry_emery.BEReport:
    """The report at x from ``curvature_matrix_scalar``, one vertex and one
    ``eigvalsh`` at a time: K = lambda_min(D Q) / 2D."""
    deg = g.degree(x)
    k = np.linalg.eigvalsh(curvature_matrix_scalar(g, x))[0] / (2.0 * deg)
    return _scalar_report(g, x, float(k))


def curvature_matrix_exact(g: Graph, x: int) -> list[list[Fraction]]:
    """D Q(x) at x in Fractions over sorted S1(x), entry by entry from the
    closed form of the Cushing-Liu-Peyerimhoff curvature matrix
    (arXiv 1606.01496) with w_y = D/d_y:
    2 - 2 c(y, y') - 4 sum_z w_y w_y' / s'_z over the common 2-sphere
    neighbours z, where c(y, y') = w_y + w_y' on S1 edges and
    s'_z = sum_{y ~ z} w_y, plus (3 + 2 t_y + 3 o_y) w_y - D + sum_y' c(y, y')
    on the diagonal."""
    s1, s2 = spheres_by_sets(g, x)
    deg = len(s1)
    nbrs = {v: set(g.adjacency[v]) for v in s1 + s2}
    w = {y: Fraction(deg, g.degree(y)) for y in s1}
    back = {z: sum((w[y] for y in s1 if y in nbrs[z]), Fraction(0)) for z in s2}

    def c(y: int, u: int) -> Fraction:
        return w[y] + w[u] if u in nbrs[y] else Fraction(0)

    def entry(y: int, u: int) -> Fraction:
        common = (z for z in s2 if y in nbrs[z] and u in nbrs[z])
        val = 2 - 2 * c(y, u) - 4 * sum((w[y] * w[u] / back[z] for z in common), Fraction(0))
        if y == u:
            t, o = len(nbrs[y] & set(s1)), len(nbrs[y] & set(s2))
            val += (3 + 2 * t + 3 * o) * w[y] - deg + sum(c(y, v) for v in s1)
        return val

    return [[entry(y, u) for u in s1] for y in s1]


def gamma2_matrix(g: Graph, x: int, basis: list[int]) -> list[list[Fraction]]:
    """The exact Gamma2 form at x over ``basis``: entry (u, v) is
    ``gamma2_value(g, e_u, e_v, x)``, by the same iterated definition,
    with Delta e_u computed once per u and Gamma(e_u, e_v) read only on
    N[x], the only vertices Delta Gamma(x) reads."""
    deg, ball = g.degree(x), [x, *g.adjacency[x]]
    unit = {u: {v: Fraction(int(v == u)) for v in range(g.n)} for u in basis}
    lap = {u: normalized_laplacian_apply(g, unit[u]) for u in basis}
    out = [[Fraction(0)] * len(basis) for _ in basis]
    for i, u in enumerate(basis):
        for j in range(i, len(basis)):
            v = basis[j]
            gam = [gamma_value(g, unit[u], unit[v], y) for y in ball]
            dgam = (sum(gam[1:], Fraction(0)) - deg * gam[0]) / deg
            val = (dgam - gamma_value(g, unit[u], lap[v], x) - gamma_value(g, unit[v], lap[u], x)) / 2
            out[i][j] = out[j][i] = val
    return out


def certify_duality(
    g: Graph,
    m1: Measure,
    m2: Measure,
    plan: TransportPlan,
    potential: Mapping[int, Fraction | int],
) -> bool:
    """True iff cost(plan) equals the potential's dual value exactly.

    The potential must be 1-Lipschitz on the support closure; by weak
    duality a True verdict certifies both the plan and the potential as
    optimal.
    """
    d = distances(g)
    closure = sorted(
        set(m1.support) | set(m2.support) | {u for u, _, _ in plan.entries} | {v for _, v, _ in plan.entries}
    )
    for i, u in enumerate(closure):
        for v in closure[i + 1 :]:
            gap = potential[u] - potential[v]
            if abs(gap) > d.d(u, v):
                raise NotLipschitz(
                    f"|phi({u}) - phi({v})| = {abs(gap)} > d = {d.d(u, v)}"
                )
    dual = sum(
        (Fraction(potential[v]) * (m1(v) - m2(v)) for v in closure), Fraction(0)
    )
    return plan.cost(g) == dual


def wasserstein_bruteforce(d: DistanceOracle, m1: Measure, m2: Measure) -> Fraction:
    """Minimum cost over all bijections of equal-mass atomic supports.

    For equal atomic masses the transportation polytope's vertices are
    exactly the bijections, so this enumeration is exhaustive.
    """
    s1, s2 = m1.support, m2.support
    masses = {m for _, m in m1.mass} | {m for _, m in m2.mass}
    assert len(masses) == 1 and len(s1) == len(s2), "oracle needs equal atomic masses"
    unit = next(iter(masses))
    best = min(
        sum(d.d(u, v) for u, v in zip(s1, perm)) for perm in permutations(s2)
    )
    return unit * best


def wasserstein_full_flow(d: DistanceOracle, m1: Measure, m2: Measure) -> Fraction:
    """W1 by integer min-cost flow between the full supports.

    Nothing cancels: mass shared by the two measures is a supply and a
    demand like any other, so this checks routes that solve only the
    remainder of m1 - m2.
    """
    denom = math.lcm(*(m.denominator for _, m in m1.mass + m2.mass))
    cost = [[d.d(u, v) for v in m2.support] for u in m1.support]
    supply = [int(m * denom) for _, m in m1.mass]
    demand = [int(m * denom) for _, m in m2.mass]
    total, _ = _transportation(cost, supply, demand)
    return Fraction(total, denom)


def edge_has_perfect_matching(g: Graph, x: int, y: int) -> bool:
    """Whether N(x) \\ N[y] and N(y) \\ N[x] admit a perfect adjacency
    matching, by enumerating every bijection between them."""
    nx, ny = set(g.adjacency[x]), set(g.adjacency[y])
    return bool(adjacency_bijections(g, sorted(nx - ny - {y}), sorted(ny - nx - {x})))


def dense_gamma_forms(g: Graph, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gamma and Gamma2 matrices at x over all n vertices, from the
    whole n x n Laplacian and one n x n Gamma matrix per neighbour."""
    n = g.n
    lap = np.zeros((n, n), dtype=np.float64)
    for v in range(n):
        lap[v, v] = -1.0
        for z in g.adjacency[v]:
            lap[v, z] = 1.0 / g.degree(v)

    def gamma_at(w: int) -> np.ndarray:
        h = np.zeros((n, n), dtype=np.float64)
        for z in g.adjacency[w]:
            h[z, z] += 1.0
            h[z, w] -= 1.0
            h[w, z] -= 1.0
            h[w, w] += 1.0
        return h / (2.0 * g.degree(w))

    gx = gamma_at(x)
    acc = -1.0 * gx
    for y in g.adjacency[x]:
        acc = acc + gamma_at(y) / g.degree(x)
    b = 0.5 * (acc - gx @ lap - lap.T @ gx)
    return gx, 0.5 * (b + b.T)


def ordered_gamma_forms(g: Graph, x: int) -> tuple[list[int], int, np.ndarray, np.ndarray]:
    """(basis, |S1|, Gamma, Gamma2) at x over ``[x] + S1 + S2``, with one
    m x m Gamma matrix per neighbour y of x added in S1 order: the float
    additions that the ordered scatter of ``stacked_forms`` must repeat."""
    s1 = sorted(g.adjacency[x])
    ball = {x, *s1}
    s2 = sorted({z for y in s1 for z in g.adjacency[y] if z not in ball})
    basis = [x] + s1 + s2
    pos = {v: i for i, v in enumerate(basis)}
    m = len(basis)

    def gamma_at(w: int) -> np.ndarray:
        i, js = pos[w], [pos[z] for z in g.adjacency[w]]
        h = np.zeros((m, m), dtype=np.float64)
        h[js, js] = 1.0
        h[js, i] = h[i, js] = -1.0
        h[i, i] = len(js)
        return h / (2.0 * len(js))

    lap = np.zeros((m, m), dtype=np.float64)
    for i, v in enumerate(basis[: 1 + len(s1)]):
        lap[i, [pos[z] for z in g.adjacency[v]]] = 1.0 / g.degree(v)
        lap[i, i] = -1.0

    gx = gamma_at(x)
    acc = -1.0 * gx
    for y in s1:
        acc = acc + gamma_at(y) / g.degree(x)
    b = 0.5 * (acc - gx @ lap - lap.T @ gx)
    return basis, len(s1), gx, 0.5 * (b + b.T)


def ssp_ncp_by_loops(g: Graph, x: int) -> tuple[bool, bool]:
    """``ssp_ncp`` at x by the loops it replaced: a degree triple per
    2-sphere vertex, then one count of shared 2-sphere neighbours per pair
    of 1-sphere vertices."""
    deg = require_regular(g)
    s2 = distances(g).sphere(x, 2)
    ssp = len(s2) <= math.comb(deg, 2)
    ncp = True
    if s2 and all(degree_triple(g, x, z).d_minus == 2 for z in s2):
        for y1, y2 in combinations(g.adjacency[x], 2):
            joint = sum(1 for z in s2 if g.has_edge(y1, z) and g.has_edge(y2, z))
            if joint > 1:
                ncp = False
                break
    return ssp, ncp


def s1pp_weights_by_pairs(g: Graph, x: int) -> np.ndarray:
    """The S1''(x) weight matrix over sorted S1(x): each induced 1-sphere
    edge weighs 1, and each 2-sphere vertex z adds 1/|N(z) in S1| to every
    pair of its 1-sphere neighbours, one pair at a time."""
    s1 = sorted(g.adjacency[x])
    pos = {y: i for i, y in enumerate(s1)}
    ball = {x, *s1}
    s2 = sorted({z for y in s1 for z in g.adjacency[y] if z not in ball})
    w = np.zeros((len(s1), len(s1)), dtype=np.float64)
    for y in s1:
        for z in g.adjacency[y]:
            if z in pos and pos[z] > pos[y]:
                w[pos[y], pos[z]] += 1.0
                w[pos[z], pos[y]] += 1.0
    for z in s2:
        back = [y for y in g.adjacency[z] if y in pos]
        share = 1.0 / len(back)
        for i, y in enumerate(back):
            for yy in back[i + 1 :]:
                w[pos[y], pos[yy]] += share
                w[pos[yy], pos[y]] += share
    return w


def distance_eigenfunction_by_fractions(g: Graph, x: int) -> tuple[bool, int | None]:
    """Whether f = d(x, .) - L/2 satisfies Delta f + (2/L) f = 0, from the
    image of f under the normalized Laplacian in Fractions: (True, None),
    or (False, first violating vertex)."""
    d = distances(g)
    L = d.diameter
    if L == 0:
        return True, None
    f = {v: Fraction(d.d(x, v)) - Fraction(L, 2) for v in range(g.n)}
    image = normalized_laplacian_apply(g, f)
    lam = Fraction(2, L)
    for v in range(g.n):
        if image[v] + lam * f[v] != 0:
            return False, v
    return True, None


def adjacency_bijections(g: Graph, left, right) -> list[dict[int, int]]:
    """Every bijection from ``left`` onto ``right`` that maps each vertex to
    a neighbour, by enumerating each choice of one neighbour in ``right``
    per vertex of ``left`` and keeping the injective ones."""
    if len(left) != len(right):
        return []
    rset = set(right)
    options = [[v for v in g.adjacency[u] if v in rset] for u in left]
    return [dict(zip(left, pick)) for pick in product(*options) if len(set(pick)) == len(pick)]


def subset_graph_by_pairs(n: int, k: int, adjacent) -> Graph:
    """The k-subsets of {1..n} in lexicographic order, joined when
    ``adjacent(s, t)`` holds for their sets, by comparing every pair: the
    definition that ``johnson`` and ``kneser`` generate directly."""
    verts = list(combinations(range(1, n + 1), k))
    edges = [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if adjacent(set(verts[i]), set(verts[j]))
    ]
    labels = tuple("{" + ",".join(map(str, s)) + "}" for s in verts)
    return build_graph(len(verts), edges, labels=labels)


def interval_bruteforce(d: DistanceOracle, x: int, y: int) -> frozenset[int]:
    n = d.dist.shape[0]
    dxy = d.d(x, y)
    return frozenset(
        z for z in range(n) if d.d(x, z) >= 0 and d.d(x, z) + d.d(z, y) == dxy
    )


def antipodal_bruteforce(dist) -> bool:
    """Every z has z' with d(z,w) + d(w,z') = d(z,z') for all w, by triple loop."""
    m = len(dist)
    for z in range(m):
        if not any(
            all(dist[z][w] + dist[w][zb] == dist[z][zb] for w in range(m))
            for zb in range(m)
        ):
            return False
    return True


def ambient_spherical_bruteforce(d: DistanceOracle) -> bool:
    """Strong sphericity with each interval measured by the restricted
    ambient metric instead of its induced one, all by definition scan."""
    dist = d.dist.tolist()
    if not antipodal_bruteforce(dist):
        return False
    n = len(dist)
    for x in range(n):
        for y in range(x + 1, n):
            members = sorted(interval_bruteforce(d, x, y))
            sub = [[dist[a][b] for b in members] for a in members]
            if not antipodal_bruteforce(sub):
                return False
    return True


def intersection_array_by_pairs(
    g: Graph, d: DistanceOracle
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """((b_0..b_{L-1}), (c_1..c_L)) from the degree triple of every ordered
    vertex pair, or None when g is not distance-regular."""
    if not d.is_connected or g.is_regular() is None:
        return None
    L = d.diameter
    b: list[set[int]] = [set() for _ in range(L)]
    c: list[set[int]] = [set() for _ in range(L + 1)]
    for x in range(g.n):
        for y in range(g.n):
            j = d.d(x, y)
            t = degree_triple(g, x, y)
            if j < L:
                b[j].add(t.d_plus)
            if j > 0:
                c[j].add(t.d_minus)
    if any(len(values) != 1 for values in b + c[1:]):
        return None
    return tuple(v for (v,) in b), tuple(v for (v,) in c[1:])


def spherical_row_major(g: Graph) -> SphericalVerdict:
    """Strong sphericity by the whole-graph check and then every interval
    I(x, y), x < y, in row-major order, with no automorphism used."""
    d = distances(g)
    if not _kernels.is_antipodal_matrix(d.dist):
        return SphericalVerdict(False, None)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            members = _kernels.interval_members(d.dist[x], d.dist[y], d.d(x, y))
            dm = _kernels.induced_distances(g.dense_adjacency, members)
            if (dm < 0).any() or not _kernels.is_antipodal_matrix(dm):
                return SphericalVerdict(False, (x, y))
    return SphericalVerdict(True, None)


def orbit_representatives_bruteforce(g: Graph) -> tuple[int, ...]:
    """The smallest vertex of each vertex's automorphism orbit, by
    enumerating every permutation."""
    edges = {frozenset(e) for e in g.edges()}
    automorphisms = [
        p for p in permutations(range(g.n))
        if all(frozenset((p[u], p[v])) in edges for u, v in g.edges())
    ]
    return tuple(min(p[x] for p in automorphisms) for x in range(g.n))


def isomorphic_bruteforce(g1: Graph, g2: Graph) -> bool:
    """Whether some permutation of g1's vertices carries its edges onto g2's."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    edges2 = {frozenset(e) for e in g2.edges()}
    return any(
        all(frozenset((p[u], p[v])) in edges2 for u, v in g1.edges())
        for p in permutations(range(g1.n))
    )


def cocktail_party_bruteforce(g: Graph) -> int | None:
    """m such that g is CP(m), read as: g has vertices and its complement
    is a perfect matching, every vertex in exactly one non-edge."""
    non_edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    covered = sorted(v for e in non_edges for v in e)
    if g.n == 0 or covered != list(range(g.n)):
        return None
    return g.n // 2


def cocktail_party_m_by_sets(g: Graph, members: frozenset[int]) -> Optional[int]:
    """m such that ``members`` induces CP(m) in g, else None, read off g's
    neighbour sets: an even, non-zero size 2m and every member adjacent to
    exactly 2m - 2 others."""
    size = len(members)
    if size == 0 or size % 2 != 0:
        return None
    if any(len(g.neighbor_set(v) & members) != size - 2 for v in members):
        return None
    return size // 2


def mu_graphs_by_sets(g: Graph) -> MuGraphVerdict:
    """The mu-graph scan as one frozenset intersection per distance-2 pair,
    in row-major pair order: the loop the stacked scan replaced."""
    d = distances(g)
    counts: Counter[int] = Counter()
    for x in range(g.n):
        for z in d.sphere(x, 2):
            if z <= x:
                continue
            m = cocktail_party_m_by_sets(g, g.neighbor_set(x) & g.neighbor_set(z))
            if m is None:
                return MuGraphVerdict(False, tuple(sorted(counts.items())), (x, z))
            counts[m] += 1
    return MuGraphVerdict(True, tuple(sorted(counts.items())), None)


def srg_params_by_sets(g: Graph, members: frozenset[int]) -> Optional[SrgParams]:
    """The strongly regular parameters of the subgraph ``members`` induces
    in g, read off g's neighbour sets pair by pair, else None; complete
    graphs are excluded and n isolated points are (n, 0, *, 0)."""
    local = [(v, g.neighbor_set(v) & members) for v in sorted(members)]
    n, degrees = len(local), {len(nv) for _, nv in local}
    if len(degrees) != 1 or degrees == {n - 1}:
        return None
    (k,) = degrees
    if k == 0:
        return SrgParams(n, 0, None, 0)
    common: dict[bool, set[int]] = {True: set(), False: set()}  # keyed by adjacency
    for i, (_, nx) in enumerate(local):
        for y, ny in local[i + 1 :]:
            common[y in nx].add(len(nx & ny))
    lams, mus = common[True], common[False]
    if len(lams) > 1 or len(mus) > 1:
        return None
    return SrgParams(n, k, min(lams), min(mus))


def local_srg_by_sets(ctx) -> LocalSrgVerdict:
    """``local_srg_check`` with every 1-sphere's parameters read by
    ``srg_params_by_sets``, one vertex at a time; the predicted parameters
    and the preconditions are the library's."""
    want = sharpness.local_srg_check(ctx)
    _, _, lam, _ = want.params
    for x in range(ctx.g.n):
        params = srg_params_by_sets(ctx.g, ctx.g.neighbor_set(x))
        if params is None:
            return replace(want, holds=False, failure=x)
        got_lam = params.lam if params.lam is not None else lam
        if (params.nu, params.k, got_lam, params.mu) != want.params:
            return replace(want, holds=False, failure=x)
    return replace(want, holds=True, failure=None)


def mu_graphs_by_subgraphs(g: Graph, d: DistanceOracle) -> MuGraphVerdict:
    """The mu-graph scan that builds every distance-2 pair's mu-graph as a
    graph, in row-major pair order, and recognises it by its complement."""
    counts: Counter[int] = Counter()
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if d.d(x, y) != 2:
                continue
            m = cocktail_party_bruteforce(mu_graph(g, x, y))
            if m is None:
                return MuGraphVerdict(False, tuple(sorted(counts.items())), (x, y))
            counts[m] += 1
    return MuGraphVerdict(True, tuple(sorted(counts.items())), None)


# the triangular prism: 3-regular, but the 1-sphere out-degrees of vertex 0
# differ (1, 1, 2)
LOPSIDED_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
# the prism with a seventh vertex on the triangle 0 1 6: degrees 2, 3 and 4,
# so the 1-ball degrees of most vertices differ
IRREGULAR_EDGES = LOPSIDED_EDGES + [(0, 6), (1, 6)]
# 30 vertices, i ~ i + 1, i ~ 7i + 3 and, for i = 0 mod 5, i ~ i + 2: 63
# edges, degrees 4 and 5, 12 triangles, and four ball shapes
# (|S1(x)|, |S2(x)|) that alternate in vertex order
SHAPES30_EDGES = sorted(
    {
        (min(i, j), max(i, j))
        for i in range(30)
        for j in [(i + 1) % 30, (7 * i + 3) % 30] + ([(i + 2) % 30] if i % 5 == 0 else [])
    }
)

# one small member of every family, a product and every fixture
SAMPLE_GRAPHS = (
    "hypercube:4", "cocktailparty:4", "complete:5", "johnson:6:3", "kneser:5:2",
    "kneser:7:2", "demicube:6", "gosset", "schlafli", "shrikhande", "hamming:3:3",
    "doob:1:1", "lattice:4", "triangular:6", "hypercube:2 x cocktailparty:3",
    *FIXTURE_NAMES,
)


def sample_graph(name: str) -> Graph:
    """The graph of a ``SAMPLE_GRAPHS`` entry."""
    if name in FIXTURE_NAMES:
        return load_fixture(name)
    specs = [FamilySpec.parse(text) for text in name.split(" x ")]
    return from_spec(specs[0] if len(specs) == 1 else FamilySpec("product", factors=tuple(specs)))


def hungarian_scalar(cost) -> tuple[int, list[int], list[int], list[int]]:
    """One assignment problem by the classic O(n^3) Hungarian loop over
    Python ints, one problem at a time: the oracle that the lockstep
    ``_kernels.hungarian`` must equal bit for bit.  Returns (minimum total,
    row -> column, row potentials u, column potentials v)."""
    n = len(cost)
    rows = [list(map(int, row)) for row in cost]
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
    total = sum(row[j] for row, j in zip(rows, row_to_col))
    return total, row_to_col, u[1:], v[1:]


def assignment_bruteforce(cost) -> int:
    n = len(cost)
    return min(
        sum(cost[i][perm[i]] for i in range(n)) for perm in permutations(range(n))
    )


def random_regular_graph(n: int, deg: int, rng: random.Random) -> Graph:
    """Simple connected deg-regular graph: circulant start + edge swaps.

    Double-edge swaps preserve the degree sequence and simplicity; the walk
    re-randomizes until a connected sample comes out.
    """
    assert (n * deg) % 2 == 0 and deg < n and deg >= 2
    from curvlab.graphs import distances

    half = deg // 2
    edges = set()
    for v in range(n):
        for step in range(1, half + 1):
            edges.add(tuple(sorted((v, (v + step) % n))))
        if deg % 2 == 1:
            edges.add(tuple(sorted((v, (v + n // 2) % n))))

    def swap_once() -> None:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            return
        new1, new2 = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if new1 in edges or new2 in edges:
            return
        edges.discard((a, b) if a < b else (b, a))
        edges.discard((c, d) if c < d else (d, c))
        edges.add(new1)
        edges.add(new2)

    for _ in range(20 * len(edges)):
        swap_once()
    while True:
        g = build_graph(n, sorted(edges))
        if distances(g).is_connected:
            return g
        for _ in range(2 * len(edges)):
            swap_once()


def record_calls(monkeypatch, module: str, name: str) -> list[tuple]:
    """Wrap ``curvlab.<module>.<name>`` in every curvlab module that bound
    it and return the list that receives the positional arguments of each
    call."""
    import sys

    original = getattr(sys.modules[f"curvlab.{module}"], name)
    calls: list[tuple] = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("curvlab"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)
    return calls
