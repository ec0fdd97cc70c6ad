"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time.  Run with ``pytest tests/test_acceptance.py -v -s``.

Exact criteria are rational equalities with zero tolerance; spectral and
Bakry-Emery comparisons use the stated 1e-9 / 1e-7 tolerances.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from curvlab.analysis import GraphAnalysis
from curvlab.bakry_emery import be_curvatures
from curvlab.cli import main as cli_main
from curvlab.families import (
    cocktail_party,
    complete,
    demi_cube,
    gosset,
    hypercube,
    johnson,
    kneser,
    shrikhande,
)
from curvlab.graphs import (
    cartesian_product,
    common_neighbors,
    distances,
    interval,
    poles_and_antipoles,
)
from curvlab.sharpness import (
    bm_sharpness,
    interval_cover_check,
    is_strongly_spherical,
    mu_graphs_all_cp,
    pole_facts,
    degree_recursions,
)
from curvlab.spectral import verify_distance_eigenfunction
from curvlab.tables import compute_table
from curvlab.transport import (
    geodesic_between,
    idle_measure,
    interval_antipole,
    kappas,
    transport_geodesic,
    wasserstein,
)

from helpers import (
    edge_has_perfect_matching,
    normalized_laplacian_apply,
    random_regular_graph,
    s1pp_sharpness_test,
    wasserstein_bruteforce,
)

BE_TOL = 1e-7


def _report(number: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS: {label} ({time.monotonic() - started:.1f}s)")


def _all_edge_kappas(g):
    return [value.value for value in kappas(g, g.edges()).values()]


def test_criterion_1_edge_curvature_lemmas():
    t0 = time.monotonic()
    cases = []
    for n in range(2, 9):
        cases.append((hypercube(n), Fraction(2, n), f"Q^{n}"))
    for n in range(2, 7):
        cases.append((cocktail_party(n), Fraction(1), f"CP({n})"))
    for n, k in ((5, 2), (6, 3), (8, 4)):
        cases.append((johnson(n, k), Fraction(n, k * (n - k)), f"J({n},{k})"))
    for n in (5, 6, 8):
        cases.append((demi_cube(n), Fraction(4, n), f"demi-cube({n})"))
    cases.append((gosset(), Fraction(2, 3), "Gosset"))
    for g, want, name in cases:
        for value in _all_edge_kappas(g):
            assert value == want, f"{name}: edge curvature {value} != {want}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "edge-curvature lemmas exact on all edges", t0)


def test_criterion_2_tables_2_and_3():
    t0 = time.monotonic()
    for table_id in (2, 3):
        _, diffs = compute_table(table_id)
        assert not diffs, f"table {table_id} mismatches: {diffs}"
        assert cli_main(["table", str(table_id)]) == 0
    _report(2, "tables 2 and 3 reproduce; CLI exits 0", t0)


def test_criterion_3_table_1():
    t0 = time.monotonic()
    _, diffs = compute_table(1)
    assert not diffs, f"table 1 mismatches: {diffs}"
    _report(3, "table 1 reproduces (|V|, (D,L), multiplicity, mu-graphs, spheres, arrays)", t0)


def test_criterion_4_bakry_emery_closed_forms():
    t0 = time.monotonic()
    for n in range(3, 9):
        g = complete(n)
        want = (n + 2) / (2.0 * (n - 1))
        for x, row in enumerate(be_curvatures(g, range(g.n))):
            assert abs(row.curvature - want) < BE_TOL, f"K_{n} vertex {x}: {row.curvature} != {want}"
    for n, k in ((5, 2), (6, 3)):
        g = johnson(n, k)
        want = (n + 2) / (2.0 * k * (n - k))
        for row in be_curvatures(g, range(g.n)):
            assert abs(row.curvature - want) < BE_TOL
    fixtures = [
        (hypercube(4), "Q^4"),
        (cocktail_party(4), "CP(4)"),
        (johnson(6, 3), "J(6,3)"),
        (demi_cube(6), "demi-cube(6)"),
        (gosset(), "Gosset"),
    ]
    for g, name in fixtures:
        d = distances(g)
        deg, L = g.is_regular(), d.diameter
        want = 1.0 / deg + 1.0 / L
        for x, row in enumerate(be_curvatures(g, range(g.n))):
            got = row.curvature
            assert abs(got - want) < BE_TOL, f"{name} vertex {x}: {got} != {want}"
            applicable, lam1, passes = s1pp_sharpness_test(g, x)
            assert applicable and lam1 >= deg / 2.0 - BE_TOL and passes, (
                f"{name} vertex {x}: S1'' lambda1 {lam1} < D/2"
            )
    _report(4, "Bakry-Emery closed forms and S1'' sharpness at every vertex", t0)


LIST_FIXTURES = [
    ("Q^3", lambda: hypercube(3)),
    ("Q^4", lambda: hypercube(4)),
    ("CP(3)", lambda: cocktail_party(3)),
    ("CP(4)", lambda: cocktail_party(4)),
    ("J(6,3)", lambda: johnson(6, 3)),
    ("demi-cube(6)", lambda: demi_cube(6)),
    ("Gosset", gosset),
    ("CP(3)xCP(3)", lambda: cartesian_product(cocktail_party(3), cocktail_party(3))),
]


def test_criterion_5_structural_theorem_suite():
    t0 = time.monotonic()
    for name, builder in LIST_FIXTURES:
        g = builder()
        d = distances(g)
        deg, L = g.is_regular(), d.diameter
        two_over_l = Fraction(2, L)

        pair_kappas = {
            pair: value.value for pair, value in kappas(g, combinations(range(g.n), 2)).items()
        }
        edge_inf = min(pair_kappas[(u, v)] for u, v in g.edges())
        # the infimum over edges equals the infimum over all pairs
        assert edge_inf == min(pair_kappas.values()), name
        # every pair obeys kappa(z, w) <= 2/d(z, w)
        for (z, w), value in pair_kappas.items():
            assert value <= Fraction(2, d.d(z, w)), name
        # sharpness forces L <= D and L | 2D
        verdict = bm_sharpness(GraphAnalysis(g))
        assert verdict.is_bm_sharp and verdict.l_le_d and verdict.l_divides_2d, name
        # self-centered sharp graphs have constant curvature 2/L
        assert all(v == two_over_l for v in pair_kappas.values()), name
        # antipole intervals cover the whole vertex set
        assert interval_cover_check(g).holds, name
        # pole facts and degree recursions at every vertex
        for x in range(g.n):
            assert pole_facts(g, x).ok, f"{name} vertex {x}"
            assert degree_recursions(g, x).holds, f"{name} vertex {x}"
        # Laplacian identity Delta f = 1 - 2 d(x,.)/L for f = d(x,.)
        per_vertex, self_centered = poles_and_antipoles(g)
        assert self_centered, name
        for x in range(g.n):
            f = {v: Fraction(d.d(x, v)) for v in range(g.n)}
            image = normalized_laplacian_apply(g, f)
            for z in range(g.n):
                assert image[z] == 1 - Fraction(2 * d.d(x, z), L), name
        # d(x,.) - L/2 is an exact eigenfunction at every pole
        for x in range(g.n):
            ok, _ = verify_distance_eigenfunction(g, x)
            assert ok, f"{name} vertex {x}"
        # antipole bijection: both 1-ball slices of an interval agree
        for x in range(g.n):
            for y in range(x + 1, g.n):
                iv = interval(g, x, y)
                side_x = sum(1 for z in iv if d.d(x, z) <= 1)
                side_y = sum(1 for z in iv if d.d(y, z) <= 1)
                assert side_x == side_y, name
        # all mu-graphs are cocktail party graphs
        assert mu_graphs_all_cp(g).holds, name
        # transport-geodesic lengths: L-1 at the endpoints, else L-2
        for x in range(g.n):
            antipole = per_vertex[x][0]
            path = geodesic_between(g, x, antipole)
            for z in (x, *g.adjacency[x]):
                tg = transport_geodesic(g, path, z)
                on_ends = tg.waypoints[0] == x or tg.waypoints[-1] == path[-1]
                assert tg.length == (L - 1 if on_ends else L - 2), f"{name} {x} {z}"
        # transport antipole agrees with brute force (x = 0 slice)
        x = 0
        for y in range(1, g.n):
            for x1 in sorted(interval(g, x, y) & set(g.adjacency[x])):
                interval_antipole(g, x, y, x1)  # raises on any disagreement
    _report(5, "structural theorem suite on every classification-list fixture", t0)


def test_criterion_6_strong_sphericity():
    t0 = time.monotonic()
    positive = [
        ("Q^4", lambda: hypercube(4)),
        ("CP(4)", lambda: cocktail_party(4)),
        ("J(6,3)", lambda: johnson(6, 3)),
        ("demi-cube(6)", lambda: demi_cube(6)),
        ("Gosset", gosset),
        ("CP(3)xCP(3)", lambda: cartesian_product(cocktail_party(3), cocktail_party(3))),
        ("J(6,3)xCP(4)", lambda: cartesian_product(johnson(6, 3), cocktail_party(4))),
    ]
    for name, builder in positive:
        g = builder()
        assert is_strongly_spherical(g).holds, name
    negative = [
        ("Petersen", lambda: kneser(5, 2)),
        ("Shrikhande", shrikhande),
        ("J(5,2)", lambda: johnson(5, 2)),
    ]
    for name, builder in negative:
        g = builder()
        assert not is_strongly_spherical(g).holds, name
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.1f}s"
    _report(6, "strong sphericity verdicts on families, products, and non-members", t0)


def test_criterion_7_cartesian_product_sharpness():
    t0 = time.monotonic()
    cp3 = cocktail_party(3)
    q2 = hypercube(2)
    d_cp3 = distances(cp3)
    d_q2 = distances(q2)

    sharp_prod = cartesian_product(cp3, cp3)
    d_sharp = distances(sharp_prod)
    verdict = bm_sharpness(GraphAnalysis(sharp_prod))
    assert verdict.is_bm_sharp and verdict.inf_edge_kappa == Fraction(1, 2)

    mixed = cartesian_product(q2, cp3)
    d_mixed = distances(mixed)
    verdict = bm_sharpness(GraphAnalysis(mixed))
    assert not verdict.is_bm_sharp

    # factor-curvature scaling verified exactly on every product edge
    def check_product_edges(g1, d1, g2, d2, prod, d_prod):
        n2 = g2.n
        deg1, deg2 = g1.is_regular(), g2.is_regular()
        total = deg1 + deg2
        want = {}
        for (u1, v1), factor in kappas(g1, g1.edges()).items():
            for w in range(n2):
                want[(u1 * n2 + w, v1 * n2 + w)] = Fraction(deg1, total) * factor.value
        for (u2, v2), factor in kappas(g2, g2.edges()).items():
            for w in range(g1.n):
                want[(w * n2 + u2, w * n2 + v2)] = Fraction(deg2, total) * factor.value
        got = kappas(prod, want)
        assert len(want) == prod.edge_count
        assert {pair: value.value for pair, value in got.items()} == want

    check_product_edges(cp3, d_cp3, cp3, d_cp3, sharp_prod, d_sharp)
    check_product_edges(q2, d_q2, cp3, d_cp3, mixed, d_mixed)
    _report(7, "product sharpness and the exact per-edge product formula", t0)


def test_criterion_8_oracle_equivalence_on_random_graphs():
    t0 = time.monotonic()
    rng = random.Random(1918)
    deg = 4
    p = Fraction(1, deg + 1)
    for index in range(200):
        n = rng.choice([6, 8, 10, 12, 14])
        g = random_regular_graph(n, deg, rng)
        d = distances(g)
        reduced_kappas = kappas(g, g.edges())
        for u, v in g.edges():
            m1 = idle_measure(g, u, p)
            m2 = idle_measure(g, v, p)
            w_assign, plan = wasserstein(g, m1, m2)
            assert plan.cost(g) == w_assign
            w_brute = wasserstein_bruteforce(d, m1, m2)
            assert w_assign == w_brute, f"graph {index} edge ({u},{v})"
            k_assign = Fraction(deg + 1, deg) * (1 - w_assign)
            # the matching certificate is exact in both directions: its
            # value when it fires, a strict upper bound when it cannot
            tri = len(common_neighbors(g, u, v))
            bound = Fraction(2 + tri, deg)
            # kappa's reduced route against the bijection oracle, and its
            # "matching" label against the enumerated perfect matchings
            matched = edge_has_perfect_matching(g, u, v)
            reduced = reduced_kappas[(u, v)]
            assert reduced.value == k_assign, f"graph {index} edge ({u},{v})"
            assert (reduced.method == "matching") == matched, f"graph {index} edge ({u},{v})"
            if matched:
                assert k_assign == bound, f"graph {index} edge ({u},{v})"
            else:
                assert k_assign < bound, f"graph {index} edge ({u},{v})"
    _report(8, "assignment vs exhaustive-coupling oracle on 200 random 4-regular graphs", t0)
