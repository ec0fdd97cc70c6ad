"""Sharpness and classification predicates.

Everything here is decided in exact rational arithmetic; no float decides
a verdict.  The mu-graph, 1-sphere and triangle counts come from products
of float64 0/1 adjacency blocks, and every partial sum of such a product
is an integer of at most ``MAX_VERTICES`` < 2^53, so each count is exact
whatever order a BLAS kernel sums in; the 2-ball blocks come from
:func:`curvlab.graphs._ball_runs`.  The verdict dataclasses carry the
witnesses needed to audit a failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import _kernels
from .errors import DisconnectedSubset, NotAPole, PreconditionUnmet
from .families import FamilySpec, from_spec
from .graphs import (
    Graph,
    _ball_runs,
    _cocktail_party_stack,
    _srg_params_stack,
    degree_triple,
    distances,
    interval,
    poles_and_antipoles,
    require_connected,
    require_regular,
    triangle_count_edge,
)
from .isomorphism import automorphism_orbits, find_isomorphism
from .transport import kappas

if TYPE_CHECKING:
    from .analysis import GraphAnalysis


@dataclass(frozen=True)
class SharpnessVerdict:
    inf_edge_kappa: Fraction
    two_over_l: Fraction
    is_bm_sharp: bool
    l_le_d: bool
    l_divides_2d: bool
    witness_edge: tuple[int, int]


def bm_sharpness(ctx: GraphAnalysis) -> SharpnessVerdict:
    """Exact infimum of edge curvature compared against 2/diameter."""
    g, deg = ctx.g, ctx.deg
    witness, value = min(ctx.edge_kappas.items(), key=lambda item: item[1].value)
    L = distances(g).diameter
    two_over_l = Fraction(2, L)
    return SharpnessVerdict(
        inf_edge_kappa=value.value,
        two_over_l=two_over_l,
        is_bm_sharp=(value.value == two_over_l),
        l_le_d=(L <= deg),
        l_divides_2d=((2 * deg) % L == 0),
        witness_edge=witness,
    )


@dataclass(frozen=True)
class LambdaVerdict:
    m: int
    holds: bool
    failing_edges: tuple[tuple[int, int], ...]


def lambda_m_check(ctx: GraphAnalysis, m: int) -> LambdaVerdict:
    """Every edge lies in at least m triangles and the remaining
    neighbourhoods admit a perfect adjacency matching, which is exactly
    when ``kappa`` labels the edge "matching".  Such an edge's triangles
    are read off its curvature, kappa = (2 + #triangles) / D exactly, so it
    has fewer than m when kappa < (m + 2) / D."""
    least = Fraction(m + 2, ctx.deg)
    failing = tuple(
        edge
        for edge, value in ctx.edge_kappas.items()
        if value.method != "matching" or value.value < least
    )
    return LambdaVerdict(m=m, holds=not failing, failing_edges=failing)


@dataclass(frozen=True)
class PoleFacts:
    triangles_ok: bool
    matching_ok: bool
    cost_ok: bool
    expected_triangles: Fraction
    expected_cost: Fraction
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.triangles_ok and self.matching_ok and self.cost_ok


def pole_facts(g: Graph, x: int) -> PoleFacts:
    """Triangle count, matching and optimal transport cost facts at a pole.

    Each edge at the pole is read off ``kappa`` (one ``kappas`` call for
    them all): it has a perfect adjacency matching exactly when the method
    is "matching", and its W1 is (D + 1 - D kappa) / (D + 1).  Its triangles
    are read off the common-neighbour counts of x, row x of A @ A.
    """
    require_connected(g)
    deg = require_regular(g)
    d = distances(g)
    L = d.diameter
    if d.eccentricity(x) != L:
        raise NotAPole(f"vertex {x} has eccentricity {d.eccentricity(x)} < {L}")
    want_tri = Fraction(2 * deg, L) - 2
    want_cost = Fraction(deg + 1 - Fraction(2 * deg, L), deg + 1)
    failures: list[str] = []
    tri_ok = match_ok = cost_ok = True
    values = kappas(g, [(x, y) for y in g.adjacency[x]])
    adj = g.dense_adjacency
    triangles = (adj[x] @ adj).astype(np.int64).tolist()
    for y in g.adjacency[x]:
        if triangles[y] != want_tri:
            tri_ok = False
            failures.append(f"edge ({x},{y}) lies in {triangles[y]} triangles")
            continue
        value = values[(x, y)]
        if value.method != "matching":
            match_ok = False
            failures.append(f"edge ({x},{y}) has no perfect matching")
            continue
        w1 = (deg + 1 - deg * value.value) / (deg + 1)
        if w1 != want_cost:
            cost_ok = False
            failures.append(f"edge ({x},{y}) W1 {w1}, expected {want_cost}")
    return PoleFacts(
        triangles_ok=tri_ok,
        matching_ok=match_ok,
        cost_ok=cost_ok,
        expected_triangles=want_tri,
        expected_cost=want_cost,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class RecursionVerdict:
    holds: bool
    failure: Optional[tuple[int, int, str]]  # (k, vertex, which identity)


def degree_recursions(g: Graph, x: int) -> RecursionVerdict:
    """d+ - d- = D(1 - 2k/L) at every y on every k-sphere of a pole x.  As
    d- + d0 + d+ = D (each neighbour of y lies one layer nearer x, level or
    one farther), this is also 2d+ + d0 = 2D(1 - k/L) and 2d- + d0 = 2kD/L."""
    require_connected(g)
    deg = require_regular(g)
    d = distances(g)
    L = d.diameter
    if d.eccentricity(x) != L:
        raise NotAPole(f"vertex {x} is not a pole")
    for k in range(1, L + 1):
        for y in d.sphere(x, k):
            t = degree_triple(g, x, y)
            if t.d_plus - t.d_minus != deg * (1 - Fraction(2 * k, L)):
                return RecursionVerdict(False, (k, y, "out-minus-in"))
    return RecursionVerdict(True, None)


@dataclass(frozen=True)
class CoverVerdict:
    holds: bool
    failure: Optional[tuple[int, int]]


def interval_cover_check(g: Graph) -> CoverVerdict:
    """Every antipole pair's interval covers the whole vertex set."""
    per_vertex, _ = poles_and_antipoles(g)
    for x in range(g.n):
        for y in per_vertex[x]:
            if x < y and len(interval(g, x, y)) != g.n:
                return CoverVerdict(False, (x, y))
    return CoverVerdict(True, None)


@dataclass(frozen=True)
class AntipoleCountVerdict:
    holds: bool
    exactly_one_each: bool
    failure: Optional[int]


def unique_antipole_check(g: Graph) -> AntipoleCountVerdict:
    """At most one antipole per vertex; exactly one when self-centered."""
    per_vertex, self_centered = poles_and_antipoles(g)
    for x, antipoles in enumerate(per_vertex):
        if len(antipoles) > 1:
            return AntipoleCountVerdict(False, False, x)
    exactly_one = self_centered and all(len(a) == 1 for a in per_vertex)
    return AntipoleCountVerdict(True, exactly_one, None)


def is_antipodal(g: Graph, subset: frozenset[int] | set[int] | np.ndarray) -> bool:
    """Antipodality of the subgraph induced on ``subset`` (a vertex set or
    its sorted int32 array), in the subgraph's own metric."""
    if not isinstance(subset, np.ndarray):
        subset = np.array(sorted(subset), dtype=np.int32)
    dm = _kernels.induced_distances(g.dense_adjacency, subset)
    if (dm < 0).any():
        raise DisconnectedSubset("subset does not induce a connected subgraph")
    return bool(_kernels.is_antipodal_matrix(dm))


@dataclass(frozen=True)
class SphericalVerdict:
    holds: bool
    failure: Optional[tuple[int, int]]  # first interval whose subgraph fails


def is_strongly_spherical(g: Graph) -> SphericalVerdict:
    """The graph and all its intervals are antipodal.

    Each interval is measured with the metric of its induced subgraph.  The
    whole graph is checked first, so a graph that fails there makes no
    automorphism search.  The intervals are then scanned in row-major order,
    (x, y) with x < y, but only in the rows of orbit representatives, the
    smallest vertex of each orbit of the automorphism group.

    Representatives suffice: an automorphism s maps I(x, y) onto I(sx, sy)
    and the induced subgraph onto the induced subgraph, so the two are
    antipodal together.  Of all pairs in the orbit of {x, y}, take the
    row-major first, (a, b).  Then a is a representative, since an
    automorphism taking a to the smaller representative of its orbit would
    give an earlier pair.  So ``failure`` is the full scan's, and no second
    scan is needed: the full scan's first failing pair is the row-major
    first of its orbit, so it lies in a representative's row, and every pair
    scanned before it in the reduced order comes before it in the full order
    too, where it held.  Each automorphism behind the orbits was verified
    edge by edge (:func:`curvlab.isomorphism.automorphism_orbits`).  An
    interval induces a connected subgraph, since every z in I(x, y) lies on
    an x-y geodesic whose vertices all lie in I(x, y), so
    :func:`is_antipodal` never raises DisconnectedSubset here.
    """
    require_connected(g)
    d = distances(g)
    if not _kernels.is_antipodal_matrix(d.dist):
        return SphericalVerdict(False, None)
    representatives, _ = automorphism_orbits(g)
    for x in sorted(set(representatives)):
        for y in range(x + 1, g.n):
            members = _kernels.interval_members(d.dist[x], d.dist[y], d.d(x, y))
            if members.shape[0] == g.n:
                continue  # the full graph was already checked
            if not is_antipodal(g, members):
                return SphericalVerdict(False, (x, y))
    return SphericalVerdict(True, None)


@dataclass(frozen=True)
class MuGraphVerdict:
    holds: bool
    m_values: tuple[tuple[int, int], ...]  # (m, count), sorted
    failure: Optional[tuple[int, int]]


def mu_graphs_all_cp(g: Graph) -> MuGraphVerdict:
    """Every distance-2 pair's mu-graph is a cocktail party graph.

    The pairs (x, z), z > x, are taken in row-major order, and each
    mu-graph is read off its vertex x's adjacency blocks S = A[S1(x), S1(x)]
    and B = A[S1(x), S2(x)], without building it: column z of B marks the
    common neighbours of x and z, and column z of S @ B counts each one's
    neighbours among them.  The blocks come in the runs of
    :func:`curvlab.graphs._ball_runs`, one stacked product per ball shape
    in a run.  The scan stops after the first run that holds a failing
    pair, and ``m_values`` then counts the pairs before that one.
    """
    require_connected(g)
    counts: Counter[int] = Counter()
    for run in _ball_runs(g, range(g.n)):
        keys, ms = [], []
        for xs, s2, blocks in run:
            k = blocks.shape[1]
            m = _cocktail_party_stack(blocks[:, :, :k], blocks[:, :, k:])
            later = s2 > xs[:, None]
            keys.append((xs[:, None] * g.n + s2)[later])
            ms.append(m[later])
        key, m = np.concatenate(keys), np.concatenate(ms)
        failing = key[m == 0]
        first = failing.min() if failing.size else None
        counts.update((m if first is None else m[key < first]).tolist())
        if first is not None:
            x, z = divmod(int(first), g.n)
            return MuGraphVerdict(False, tuple(sorted(counts.items())), (x, z))
    return MuGraphVerdict(True, tuple(sorted(counts.items())), None)


@dataclass(frozen=True)
class LocalSrgVerdict:
    holds: bool
    params: tuple[int, Fraction, Fraction, Fraction]
    theta: Fraction
    failure: Optional[int]


def local_srg_check(ctx: GraphAnalysis) -> LocalSrgVerdict:
    """Every induced 1-sphere matches the predicted strongly regular
    parameters and second adjacency eigenvalue.

    Preconditions: self-centered Bonnet-Myers sharp with uniform cocktail
    party mu-graphs of the predicted size.

    Each 1-sphere S1(x) is read off the adjacency block A[S1(x), S1(x)]:
    its row sums give k, and the product of the block with itself gives
    lambda on the edges and mu on the other off-diagonal cells.  The
    blocks come in the runs of :func:`curvlab.graphs._ball_runs`, one
    stacked product per ball shape in a run, and the scan stops after the
    first run with a failing vertex, at the smallest one.  The parameters
    decide the verdict exactly; the eigenvalue needs no solve.
    The eigenvalues of an srg(v, k, lambda, mu) other than k are the roots
    of x^2 - (lambda - mu) x - (k - mu) (Godsil-Royle, *Algebraic Graph
    Theory*, sec. 10.2).  With the predicted k, lambda, mu and theta below,
    lambda - mu = theta - 2 and k - mu = 2 theta for every (D, L), so the
    roots are theta and -2.  A sphere whose parameters match is therefore
    one of two kinds:

    - mu > 0: the sphere is a connected srg that is not complete, so both
      roots are eigenvalues and the second largest is the larger root.  A
      matching k = 2D/L - 2 >= 0 forces D >= L, so theta >= 0 > -2, and
      the second eigenvalue is theta.
    - mu = 0: this forces D = L, hence k = 0 and theta = 0.  The sphere
      is D isolated points (the wildcard lambda), whose second eigenvalue
      is 0 = theta.

    So a sphere with matching parameters has second eigenvalue theta, and
    a sphere without them fails whatever its spectrum.
    """
    g, deg = ctx.g, ctx.deg
    L = distances(g).diameter
    if L < 2:
        raise PreconditionUnmet("local srg structure needs diameter >= 2")
    _, self_centered = ctx.poles_and_antipoles
    if not (ctx.bm.is_bm_sharp and self_centered):
        raise PreconditionUnmet("graph is not self-centered Bonnet-Myers sharp")
    want_m = Fraction(deg - L, L * (L - 1)) + 1
    mu_verdict = ctx.mu_graphs
    if not mu_verdict.holds or [m for m, _ in mu_verdict.m_values] != [want_m]:
        raise PreconditionUnmet(
            f"mu-graphs are not uniformly CP({want_m}): {mu_verdict.m_values}"
        )
    nu = deg
    k = Fraction(2 * deg, L) - 2
    lam = Fraction(deg - 1, L - 1) - 3
    mu = Fraction(2 * (deg - L), L * (L - 1))
    theta = Fraction((deg - L) * (L - 2), L * (L - 1))
    want = (nu, k, lam, mu)
    for run in _ball_runs(g, range(g.n)):
        failing = [
            x
            for xs, _, blocks in run
            for x, params in zip(xs.tolist(), _srg_params_stack(blocks[:, :, :deg]))
            if params is None
            or (params.nu, params.k, lam if params.lam is None else params.lam, params.mu) != want
        ]
        if failing:
            return LocalSrgVerdict(False, want, theta, min(failing))
    return LocalSrgVerdict(True, want, theta, None)


def ssp_ncp(g: Graph, x: int) -> tuple[bool, bool]:
    """(small sphere property, non-clustering property) at x, read off
    B = A[S1(x), S2(x)]: the in-degree of z in S2(x) is column z's sum, and
    entry (y1, y2) of B B^T counts the 2-sphere neighbours y1, y2 share."""
    require_connected(g)
    deg = require_regular(g)
    (((_, _, blocks),),) = _ball_runs(g, [x])
    b = blocks[0, :, deg:]
    clustered = b.size > 0 and (b.sum(axis=0) == 2).all() and (np.triu(b @ b.T, 1) > 1).any()
    return b.shape[1] <= comb(deg, 2), not clustered


@dataclass(frozen=True)
class FourCycleVerdict:
    holds: bool
    checked_edges: int
    violations: tuple[tuple[int, int, int], ...]  # (x, y, w) path not in a 4-cycle


def four_cycle_lemma_check(ctx: GraphAnalysis) -> FourCycleVerdict:
    """For triangle-free edges with curvature >= 2/D, every adjacent edge
    pair extends to a 4-cycle."""
    g, deg = ctx.g, ctx.deg
    threshold = Fraction(2, deg)
    checked = 0
    violations: list[tuple[int, int, int]] = []
    for (x, y), value in ctx.edge_kappas.items():
        if triangle_count_edge(g, x, y) != 0:
            continue
        if value.value < threshold:
            continue
        checked += 1
        for a, b in ((x, y), (y, x)):
            for w in g.adjacency[a]:
                if w == b:
                    continue
                if not any(g.has_edge(u, w) for u in g.adjacency[b] if u != a):
                    violations.append((a, b, w))
    return FourCycleVerdict(not violations, checked, tuple(violations))


# -- classification -----------------------------------------------------------

@dataclass(frozen=True)
class ClassificationMatch:
    matched: Optional[FamilySpec]
    iso_witness: Optional[tuple[int, ...]]
    reason: str


def _list_base_specs(max_vertices: int) -> list[tuple[FamilySpec, int, int, int]]:
    """(spec, |V|, D, L) of classification-list members up to a vertex cap."""
    out: list[tuple[FamilySpec, int, int, int]] = []
    n = 1
    while 2**n <= max_vertices:
        out.append((FamilySpec("hypercube", (n,)), 2**n, n, n))
        n += 1
    n = 3
    while 2 * n <= max_vertices:
        out.append((FamilySpec("cocktailparty", (n,)), 2 * n, 2 * n - 2, 2))
        n += 1
    n = 3
    while comb(2 * n, n) <= max_vertices:
        out.append((FamilySpec("johnson", (2 * n, n)), comb(2 * n, n), n * n, n))
        n += 1
    n = 3
    while 2 ** (2 * n - 1) <= max_vertices:
        out.append(
            (FamilySpec("demicube", (2 * n,)), 2 ** (2 * n - 1), n * (2 * n - 1), n)
        )
        n += 1
    if 56 <= max_vertices:
        out.append((FamilySpec("gosset", ()), 56, 27, 3))
    return out


def _factorizations(
    n: int, deg: int, diam: int, ratio: Fraction, bases: list[tuple[FamilySpec, int, int, int]]
) -> list[tuple[FamilySpec, ...]]:
    """Multisets of list members with matching product invariants."""
    usable = [
        b for b in bases if Fraction(b[2], b[3]) == ratio and n % b[1] == 0
    ]
    results: list[tuple[FamilySpec, ...]] = []

    def rec(idx: int, rem_n: int, rem_d: int, rem_l: int, chosen: list[FamilySpec]) -> None:
        if rem_n == 1:
            if rem_d == 0 and rem_l == 0 and chosen:
                results.append(tuple(chosen))
            return
        for i in range(idx, len(usable)):
            spec, bn, bd, bl = usable[i]
            if rem_n % bn == 0 and bd <= rem_d and bl <= rem_l:
                chosen.append(spec)
                rec(i, rem_n // bn, rem_d - bd, rem_l - bl, chosen)
                chosen.pop()

    rec(0, n, deg, diam, [])
    return results


def classify(ctx: GraphAnalysis) -> ClassificationMatch:
    """Match a self-centered Bonnet-Myers sharp graph against the known list
    (the five families and their equal-ratio Cartesian products), confirming
    by explicit isomorphism."""
    g, deg = ctx.g, ctx.deg
    _, self_centered = ctx.poles_and_antipoles
    if not self_centered:
        return ClassificationMatch(None, None, "not self-centered")
    verdict = ctx.bm
    if not verdict.is_bm_sharp:
        return ClassificationMatch(
            None,
            None,
            f"not Bonnet-Myers sharp (inf kappa {verdict.inf_edge_kappa} != {verdict.two_over_l})",
        )
    L = distances(g).diameter
    bases = _list_base_specs(g.n)
    ratio = Fraction(deg, L)
    candidates: list[FamilySpec] = []
    for spec, bn, bd, bl in bases:
        if (bn, bd, bl) == (g.n, deg, L):
            candidates.append(spec)
    for combo in _factorizations(g.n, deg, L, ratio, bases):
        if len(combo) >= 2:
            candidates.append(FamilySpec("product", factors=combo))
    if not candidates:
        return ClassificationMatch(None, None, "no list member matches (|V|, D, L)")
    for spec in candidates:
        witness = find_isomorphism(from_spec(spec), g)
        if witness is not None:
            return ClassificationMatch(spec, witness, "matched")
    return ClassificationMatch(None, None, "invariants matched but no isomorphism found")
