"""Sharpness and classification predicates.

Everything here is decided in exact rational arithmetic; floats appear only
in strongly-regular eigenvalue side checks.  The verdict dataclasses carry
the witnesses needed to audit a failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import _kernels
from .errors import (
    Disconnected,
    DisconnectedSubset,
    NoEdges,
    NotAPole,
    NotRegular,
    PreconditionUnmet,
)
from .families import FamilySpec, from_spec
from .graphs import (
    Graph,
    _cocktail_party_m,
    common_neighbors,
    degree_triple,
    distances,
    induced_subgraph,
    interval,
    is_strongly_regular,
    poles_and_antipoles,
    triangle_count_edge,
)
from .isomorphism import automorphism_orbits, find_isomorphism
from .spectral import adjacency_spectrum
from .transport import (
    tpm_transport_map,
    idle_measure,
    wasserstein,
)

if TYPE_CHECKING:
    from .analysis import GraphAnalysis


def _require_connected_regular(g: Graph) -> int:
    if not distances(g).is_connected:
        raise Disconnected("predicate needs a connected graph")
    deg = g.is_regular()
    if deg is None:
        raise NotRegular("predicate needs a regular graph")
    return deg


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
    g = ctx.g
    deg = _require_connected_regular(g)
    if g.edge_count == 0:
        raise NoEdges("the edge-curvature infimum needs at least one edge")
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
    when ``kappa`` labels the edge "matching"."""
    g = ctx.g
    if g.is_regular() is None:
        raise NotRegular("Lambda(m) is stated for regular graphs")
    failing = tuple(
        (u, v)
        for (u, v), value in ctx.edge_kappas.items()
        if triangle_count_edge(g, u, v) < m or value.method != "matching"
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
    """Triangle count, matching and optimal transport cost facts at a pole."""
    deg = _require_connected_regular(g)
    d = distances(g)
    L = d.diameter
    if d.eccentricity(x) != L:
        raise NotAPole(f"vertex {x} has eccentricity {d.eccentricity(x)} < {L}")
    want_tri = Fraction(2 * deg, L) - 2
    want_cost = Fraction(deg + 1 - Fraction(2 * deg, L), deg + 1)
    failures: list[str] = []
    tri_ok = match_ok = cost_ok = True
    for y in g.adjacency[x]:
        if triangle_count_edge(g, x, y) != want_tri:
            tri_ok = False
            failures.append(f"edge ({x},{y}) lies in {triangle_count_edge(g, x, y)} triangles")
            continue
        # the shared 1-ball mass cancels, so the plan moves N(x)\N[y] onto
        # N(y)\N[x]; every atom moves at least 1, and by exactly 1 in an
        # optimal plan iff a perfect adjacency matching exists
        p = Fraction(1, deg + 1)
        w1, plan = wasserstein(g, idle_measure(g, x, p), idle_measure(g, y, p))
        matching = {u: v for u, v, _ in plan.entries if u != v}
        if any(not g.has_edge(u, v) for u, v in matching.items()):
            match_ok = False
            failures.append(f"edge ({x},{y}) has no perfect matching")
            continue
        plan_cost = tpm_transport_map(g, x, y, matching).cost
        if plan_cost != want_cost or w1 != want_cost:
            cost_ok = False
            failures.append(
                f"edge ({x},{y}) cost {plan_cost}, W1 {w1}, expected {want_cost}"
            )
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
    """The three in/out/spherical degree identities on every sphere of a pole."""
    deg = _require_connected_regular(g)
    d = distances(g)
    L = d.diameter
    if d.eccentricity(x) != L:
        raise NotAPole(f"vertex {x} is not a pole")
    for k in range(1, L + 1):
        for y in d.sphere(x, k):
            t = degree_triple(g, x, y)
            if t.d_plus - t.d_minus != deg * (1 - Fraction(2 * k, L)):
                return RecursionVerdict(False, (k, y, "out-minus-in"))
            if 2 * t.d_plus + t.d_zero != 2 * deg * (1 - Fraction(k, L)):
                return RecursionVerdict(False, (k, y, "out-spherical"))
            if 2 * t.d_minus + t.d_zero != Fraction(2 * k * deg, L):
                return RecursionVerdict(False, (k, y, "in-spherical"))
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


def is_antipodal(g: Graph, subset: frozenset[int] | set[int]) -> bool:
    """Antipodality of the induced subgraph on ``subset`` in its own metric."""
    members = np.array(sorted(subset), dtype=np.int32)
    dm = _kernels.induced_distances(g.dense_adjacency, members)
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
    edge by edge (:func:`curvlab.isomorphism.automorphism_orbits`).
    """
    d = distances(g)
    if not d.is_connected:
        raise Disconnected("strong sphericity needs a connected graph")
    if not _kernels.is_antipodal_matrix(d.dist):
        return SphericalVerdict(False, None)
    representatives, _ = automorphism_orbits(g)
    adj = g.dense_adjacency
    for x in sorted(set(representatives)):
        for y in range(x + 1, g.n):
            members = _kernels.interval_members(d.dist[x], d.dist[y], d.d(x, y))
            if members.shape[0] == g.n:
                continue  # the full graph was already checked
            dm = _kernels.induced_distances(adj, members)
            if (dm < 0).any() or not _kernels.is_antipodal_matrix(dm):
                return SphericalVerdict(False, (x, y))
    return SphericalVerdict(True, None)


@dataclass(frozen=True)
class MuGraphVerdict:
    holds: bool
    m_values: tuple[tuple[int, int], ...]  # (m, count), sorted
    failure: Optional[tuple[int, int]]


def mu_graphs_all_cp(g: Graph) -> MuGraphVerdict:
    """Every distance-2 pair's mu-graph is a cocktail party graph.

    The pairs are taken in row-major order and each mu-graph is read off
    the common neighbours N(x) & N(y), without building it.
    """
    d = distances(g)
    if not d.is_connected:
        raise Disconnected("mu-graph scan needs a connected graph")
    counts: Counter[int] = Counter()
    pairs = ((x, y) for x in range(g.n) for y in d.sphere(x, 2) if y > x)
    for x, y in pairs:
        m = _cocktail_party_m(g, common_neighbors(g, x, y))
        if m is None:
            return MuGraphVerdict(False, tuple(sorted(counts.items())), (x, y))
        counts[m] += 1
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
    """
    g = ctx.g
    deg = _require_connected_regular(g)
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
    for x in range(g.n):
        sphere, _ = induced_subgraph(g, g.adjacency[x])
        params = is_strongly_regular(sphere)
        if params is None:
            return LocalSrgVerdict(False, (nu, k, lam, mu), theta, x)
        got_lam = params.lam if params.lam is not None else lam  # wildcard
        if (params.nu, params.k, got_lam, params.mu) != (nu, k, lam, mu):
            return LocalSrgVerdict(False, (nu, k, lam, mu), theta, x)
        spec_sorted = adjacency_spectrum(sphere)
        if abs(float(spec_sorted[1]) - float(theta)) > 1e-9:
            return LocalSrgVerdict(False, (nu, k, lam, mu), theta, x)
    return LocalSrgVerdict(True, (nu, k, lam, mu), theta, None)


def ssp_ncp(g: Graph, x: int) -> tuple[bool, bool]:
    """(small sphere property, non-clustering property) at x."""
    deg = g.is_regular()
    if deg is None:
        raise NotRegular("SSP/NCP are stated for regular graphs")
    s2 = distances(g).sphere(x, 2)
    ssp = len(s2) <= comb(deg, 2)
    ncp = True
    if s2 and all(degree_triple(g, x, z).d_minus == 2 for z in s2):
        s1 = g.adjacency[x]
        for y1, y2 in combinations(s1, 2):
            joint = sum(
                1 for z in s2 if g.has_edge(y1, z) and g.has_edge(y2, z)
            )
            if joint > 1:
                ncp = False
                break
    return ssp, ncp


@dataclass(frozen=True)
class FourCycleVerdict:
    holds: bool
    checked_edges: int
    violations: tuple[tuple[int, int, int], ...]  # (x, y, w) path not in a 4-cycle


def four_cycle_lemma_check(ctx: GraphAnalysis) -> FourCycleVerdict:
    """For triangle-free edges with curvature >= 2/D, every adjacent edge
    pair extends to a 4-cycle."""
    g = ctx.g
    deg = _require_connected_regular(g)
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
    g = ctx.g
    deg = _require_connected_regular(g)
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
