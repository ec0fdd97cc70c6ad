"""Sharpness predicates, structural theorems, and classification."""

import random
from fractions import Fraction
from itertools import product

import pytest

from curvlab.analysis import GraphAnalysis
from curvlab.errors import DisconnectedSubset, NotAPole, PreconditionUnmet
from curvlab.families import (
    FamilySpec,
    cocktail_party,
    complete,
    from_spec,
    gosset,
    hypercube,
    johnson,
    shrikhande,
)
from curvlab.graphs import (
    build_graph,
    cartesian_product,
    distances,
    interval,
    poles_and_antipoles,
)
from curvlab.isomorphism import automorphism_orbits, verify_isomorphism
from curvlab.sharpness import (
    SphericalVerdict,
    bm_sharpness,
    classify,
    degree_recursions,
    four_cycle_lemma_check,
    interval_cover_check,
    is_antipodal,
    is_strongly_spherical,
    lambda_m_check,
    local_srg_check,
    mu_graphs_all_cp,
    pole_facts,
    ssp_ncp,
    unique_antipole_check,
)

from helpers import (
    SAMPLE_GRAPHS,
    ambient_spherical_bruteforce,
    mu_graphs_by_subgraphs,
    random_regular_graph,
    record_calls,
    sample_graph,
    spherical_row_major,
)


class TestBMSharpness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hypercubes_sharp(self, n):
        g = hypercube(n)
        v = bm_sharpness(GraphAnalysis(g))
        assert v.is_bm_sharp and v.inf_edge_kappa == Fraction(2, n)
        assert v.l_le_d and v.l_divides_2d

    def test_j52_not_sharp(self):
        g = johnson(5, 2)
        v = bm_sharpness(GraphAnalysis(g))
        assert not v.is_bm_sharp
        assert v.inf_edge_kappa == Fraction(5, 6) and v.two_over_l == 1

    def test_cp3_squared_sharp(self, cp3_squared):
        g, _ = cp3_squared
        v = bm_sharpness(GraphAnalysis(g))
        assert v.is_bm_sharp and v.inf_edge_kappa == Fraction(1, 2)

    def test_divisibility_on_sharp_fixtures(self, j63, demi6, gosset_graph):
        for g, _ in (j63, demi6, gosset_graph):
            v = bm_sharpness(GraphAnalysis(g))
            assert v.is_bm_sharp and v.l_le_d and v.l_divides_2d


class TestLambdaM:
    def test_hypercube_lambda0(self, q4):
        g, _ = q4
        assert lambda_m_check(GraphAnalysis(g), 0).holds

    def test_gosset_lambda16(self, gosset_graph):
        g, _ = gosset_graph
        assert lambda_m_check(GraphAnalysis(g), 16).holds

    def test_k4_lambda3_fails(self):
        g = complete(4)
        verdict = lambda_m_check(GraphAnalysis(g), 3)
        assert not verdict.holds and len(verdict.failing_edges) == g.edge_count

    def test_prop_equivalence_on_self_centered(self, cp4, j63, petersen):
        # self-centered: BM-sharp <=> Lambda(2D/L - 2)
        for g, d in (cp4, j63, petersen):
            _, self_centered = poles_and_antipoles(g)
            assert self_centered
            deg, L = g.is_regular(), d.diameter
            m = Fraction(2 * deg, L) - 2
            sharp = bm_sharpness(GraphAnalysis(g)).is_bm_sharp
            lam = m.denominator == 1 and m >= 0 and lambda_m_check(GraphAnalysis(g), int(m)).holds
            assert sharp == lam


class TestPoleFacts:
    def test_q3(self, q3):
        g, _ = q3
        facts = pole_facts(g, 0)
        assert facts.ok
        assert facts.expected_triangles == 0
        assert facts.expected_cost == Fraction(1, 2)

    def test_gosset(self, gosset_graph):
        g, _ = gosset_graph
        facts = pole_facts(g, 0)
        assert facts.ok
        assert facts.expected_triangles == 16
        assert facts.expected_cost == Fraction(10, 28)

    def test_demi6(self, demi6):
        g, _ = demi6
        facts = pole_facts(g, 0)
        assert facts.ok and facts.expected_triangles == 8

    def test_one_assignment_per_edge(self, q4, monkeypatch):
        g, _ = q4
        solves = record_calls(monkeypatch, "_kernels", "hungarian")
        assert pole_facts(g, 0).ok
        assert len(solves) == 4  # one per edge at the pole

    def test_c5_has_no_matching(self):
        # at each edge of C5 the two far neighbours lie at distance 2
        g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        facts = pole_facts(g, 0)
        assert (facts.triangles_ok, facts.matching_ok, facts.cost_ok) == (True, False, True)
        assert facts.failures == (
            "edge (0,1) has no perfect matching",
            "edge (0,4) has no perfect matching",
        )

    def test_not_a_pole(self):
        # 3-regular with eccentricities {3, 4}: vertex 0 misses the diameter
        g = build_graph(
            12,
            [(0, 4), (0, 6), (0, 9), (1, 7), (1, 9), (1, 10), (2, 3), (2, 5),
             (2, 6), (3, 8), (3, 11), (4, 8), (4, 11), (5, 10), (5, 11),
             (6, 8), (7, 9), (7, 10)],
        )
        d = distances(g)
        assert d.eccentricity(0) == 3 and d.diameter == 4
        with pytest.raises(NotAPole):
            pole_facts(g, 0)


class TestDegreeRecursions:
    def test_hypercube(self, q4):
        g, _ = q4
        assert degree_recursions(g, 0).holds

    def test_j63_first_sphere(self, j63):
        g, d = j63
        assert degree_recursions(g, 0).holds
        from curvlab.graphs import degree_triple

        for y in d.sphere(0, 1):
            t = degree_triple(g, 0, y)
            assert t.d_plus - t.d_minus == 3  # 9 (1 - 2/3)

    def test_gosset_antipole_sphere(self, gosset_graph):
        g, d = gosset_graph
        from curvlab.graphs import degree_triple

        y = d.sphere(0, 3)[0]
        t = degree_triple(g, 0, y)
        assert t.d_plus - t.d_minus == -27

    def test_fails_on_non_sharp(self, petersen):
        g, _ = petersen
        assert not degree_recursions(g, 0).holds


class TestIntervalCover:
    def test_hypercube(self, q4):
        g, _ = q4
        assert interval_cover_check(g).holds

    def test_gosset(self, gosset_graph):
        g, _ = gosset_graph
        assert interval_cover_check(g).holds

    def test_petersen_fails(self, petersen):
        g, _ = petersen
        assert not interval_cover_check(g).holds


class TestUniqueAntipole:
    def test_hypercube(self, q4):
        g, _ = q4
        verdict = unique_antipole_check(g)
        assert verdict.holds and verdict.exactly_one_each

    def test_cp(self, cp4):
        g, _ = cp4
        verdict = unique_antipole_check(g)
        assert verdict.holds and verdict.exactly_one_each

    def test_six_cycle(self):
        g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        verdict = unique_antipole_check(g)
        assert verdict.holds and verdict.exactly_one_each


class TestAntipodal:
    def test_full_hypercube(self, q4):
        g, _ = q4
        assert is_antipodal(g, set(range(g.n)))

    def test_p3_not_antipodal(self):
        # the middle vertex has no partner whose interval covers the path
        g = build_graph(3, [(0, 1), (1, 2)])
        assert not is_antipodal(g, {0, 1, 2})

    def test_star_not_antipodal(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not is_antipodal(g, {0, 1, 2, 3})

    def test_disconnected_subset(self, q3):
        g, _ = q3
        with pytest.raises(DisconnectedSubset):
            is_antipodal(g, {0, 7})


def _cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _rhombic_dodecahedron():
    octahedron = [tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    cube = list(product((1, -1), repeat=3))
    return build_graph(14, [
        (a, 6 + b) for a, o in enumerate(octahedron) for b, c in enumerate(cube)
        if all(oi in (0, ci) for oi, ci in zip(o, c))
    ])


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# antipodal graphs beside SAMPLE_GRAPHS, some relabelled; all but
# J(6,3)xCP(2) fail strong sphericity
_SPHERICAL_CASES = {
    "C6": lambda: _cycle(6),
    "C8": lambda: _cycle(8),
    "C6xK2": lambda: cartesian_product(_cycle(6), complete(2)),
    "rhombic dodecahedron": _rhombic_dodecahedron,
    "shuffled C6xK2": lambda: _shuffled(cartesian_product(_cycle(6), complete(2)), 1),
    "shuffled rhombic dodecahedron": lambda: _shuffled(_rhombic_dodecahedron(), 2),
    "shuffled J(6,3)xCP(2)": lambda: _shuffled(
        cartesian_product(johnson(6, 3), cocktail_party(2)), 3
    ),
}


class TestStronglySpherical:
    def test_families_positive(self, q3, q4, cp3, cp4, j63):
        for g, _ in (q3, q4, cp3, cp4, j63):
            assert is_strongly_spherical(g).holds

    def test_negative(self, petersen):
        g, _ = petersen
        assert not is_strongly_spherical(g).holds
        sh = shrikhande()
        assert not is_strongly_spherical(sh).holds

    def test_modes_agree_on_list_fixtures(self, q3, cp3, j63):
        # the induced metric of an interval agrees with the restricted
        # ambient one on these list members
        for g, d in (q3, cp3, j63):
            assert is_strongly_spherical(g).holds == ambient_spherical_bruteforce(d)

    def test_unequal_ratio_product_still_spherical(self):
        # sphericity needs only list-member factors, unlike sharpness,
        # which additionally needs equal degree/diameter ratios
        g = cartesian_product(hypercube(2), cocktail_party(3))
        assert not bm_sharpness(GraphAnalysis(g)).is_bm_sharp
        assert is_strongly_spherical(g).holds

    @pytest.mark.parametrize(
        "name, failure", [("C6", (0, 2)), ("C8", (0, 2)), ("C6xK2", (0, 4))]
    )
    def test_failure_pair(self, name, failure):
        # antipodal as a whole; the first interval that is not is a path
        g = _SPHERICAL_CASES[name]()
        assert is_strongly_spherical(g) == SphericalVerdict(False, failure)

    def test_failure_pair_outside_representatives(self):
        # two orbits, octahedron vertices 0-5 and cube vertices 6-13; the
        # first failing interval ends at cube vertex 10, which is neither a
        # representative nor in the orbit of the row it fails in
        g = _SPHERICAL_CASES["rhombic dodecahedron"]()
        assert automorphism_orbits(g)[0] == (0,) * 6 + (6,) * 8
        assert is_strongly_spherical(g) == SphericalVerdict(False, (0, 10))

    @pytest.mark.parametrize("name", SAMPLE_GRAPHS + tuple(_SPHERICAL_CASES))
    def test_representatives_agree_with_full_scan(self, name):
        g = _SPHERICAL_CASES[name]() if name in _SPHERICAL_CASES else sample_graph(name)
        assert is_strongly_spherical(g) == spherical_row_major(g)


class TestMuGraphsAllCP:
    def test_q4(self, q4):
        g, _ = q4
        verdict = mu_graphs_all_cp(g)
        assert verdict.holds and verdict.m_values == ((1, 48),)

    def test_k3_vacuous(self):
        g = complete(3)
        verdict = mu_graphs_all_cp(g)
        assert verdict.holds and verdict.m_values == ()

    def test_petersen_fails(self, petersen):
        g, _ = petersen
        assert not mu_graphs_all_cp(g).holds

    def test_matches_subgraph_scan(self, monkeypatch):
        # same verdict, m-values and failure pair as building every
        # mu-graph, without building any
        rng = random.Random(11)
        corpus = [sample_graph(name) for name in SAMPLE_GRAPHS]
        corpus += [
            random_regular_graph(n, deg, rng)
            for n, deg in [(rng.choice([8, 10, 12]), rng.choice([3, 4])) for _ in range(10)]
        ]
        cases = [(g, distances(g)) for g in corpus]
        want = [mu_graphs_by_subgraphs(g, d) for g, d in cases]
        assert any(v.holds for v in want) and not all(v.holds for v in want)
        built = record_calls(monkeypatch, "graphs", "induced_subgraph")
        assert [mu_graphs_all_cp(g) for g, d in cases] == want
        assert built == []


class TestLocalSrg:
    def test_gosset(self, gosset_graph):
        g, _ = gosset_graph
        verdict = local_srg_check(GraphAnalysis(g))
        assert verdict.holds
        assert verdict.params == (27, 16, 10, 8)
        assert verdict.theta == 4

    def test_j63(self, j63):
        g, _ = j63
        verdict = local_srg_check(GraphAnalysis(g))
        assert verdict.holds
        assert verdict.params == (9, 4, 1, 2)
        assert verdict.theta == 1

    def test_demi6(self, demi6):
        g, _ = demi6
        verdict = local_srg_check(GraphAnalysis(g))
        assert verdict.holds and verdict.params == (15, 8, 4, 4)

    def test_precondition(self, petersen):
        g, _ = petersen
        with pytest.raises(PreconditionUnmet):
            local_srg_check(GraphAnalysis(g))


class TestSspNcp:
    def test_hypercube(self, q4):
        g, _ = q4
        assert ssp_ncp(g, 0) == (True, True)

    def test_k4_vacuous(self):
        g = complete(4)
        ssp, ncp = ssp_ncp(g, 0)
        assert ssp and ncp

    def test_triangle_free_sharp_pole(self, q3):
        g, _ = q3
        for x in range(g.n):
            assert ssp_ncp(g, x) == (True, True)


class TestFourCycleLemma:
    def test_hypercube(self, q4):
        g, _ = q4
        verdict = four_cycle_lemma_check(GraphAnalysis(g))
        assert verdict.holds and verdict.checked_edges == g.edge_count

    def test_c4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert four_cycle_lemma_check(GraphAnalysis(g)).holds

    def test_c5_vacuous(self):
        # pentagon edges have curvature 1/2 >= 2/D = 1, false; nothing to check
        g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        verdict = four_cycle_lemma_check(GraphAnalysis(g))
        assert verdict.holds and verdict.checked_edges == 0


class TestBigProductStructure:
    """Structural checks on the 160-vertex product J(6,3) x CP(4)."""

    @pytest.fixture(scope="class")
    @staticmethod
    def big():
        g = cartesian_product(johnson(6, 3), cocktail_party(4))
        return g, distances(g)

    def test_constant_curvature_on_edges_and_sampled_pairs(self, big):
        import random

        g, d = big
        L = d.diameter
        want = Fraction(2, L)
        from curvlab.transport import kappa

        for u, v in g.edges():
            assert kappa(g, u, v).value == want
        rng = random.Random(7)
        for _ in range(300):
            z, w = rng.sample(range(g.n), 2)
            assert kappa(g, z, w).value == want

    def test_cover_and_antipole_bijection(self, big):
        g, d = big
        assert interval_cover_check(g).holds
        for x in range(g.n):
            for y in range(x + 1, g.n):
                iv = interval(g, x, y)
                side_x = sum(1 for z in iv if d.d(x, z) <= 1)
                side_y = sum(1 for z in iv if d.d(y, z) <= 1)
                assert side_x == side_y

    def test_laplacian_identity_all_poles(self, big):
        # integer form of Delta d(x,.) = 1 - 2 d(x,.)/L: for every z,
        # L * sum_{w ~ z} (d(x,w) - d(x,z)) == D * (L - 2 d(x,z))
        import numpy as np

        g, d = big
        deg, L = g.is_regular(), d.diameter
        adj = np.zeros((g.n, g.n), dtype=np.int64)
        for u in range(g.n):
            adj[u, list(g.adjacency[u])] = 1
        dist = d.dist.astype(np.int64)
        for x in range(g.n):
            row = dist[x]
            lhs = L * (adj @ row - deg * row)
            rhs = deg * (L - 2 * row)
            assert (lhs == rhs).all(), f"pole {x}"

    def test_pole_facts_and_recursions_sample(self, big):
        g, _ = big
        for x in range(0, g.n, 20):
            assert pole_facts(g, x).ok
            assert degree_recursions(g, x).holds

    def test_transport_geodesic_lengths_sample(self, big):
        from curvlab.graphs import poles_and_antipoles
        from curvlab.transport import geodesic_between, transport_geodesic

        g, d = big
        L = d.diameter
        per_vertex, self_centered = poles_and_antipoles(g)
        assert self_centered
        for x in range(0, g.n, 40):
            path = geodesic_between(g, x, per_vertex[x][0])
            for z in (x, *g.adjacency[x]):
                tg = transport_geodesic(g, path, z)
                on_ends = tg.waypoints[0] == x or tg.waypoints[-1] == path[-1]
                assert tg.length == (L - 1 if on_ends else L - 2)

    def test_mu_graphs_uniform(self, big):
        g, _ = big
        verdict = mu_graphs_all_cp(g)
        assert verdict.holds
        # product mu-graphs mix the factor sizes CP(2) and CP(3)
        assert [m for m, _ in verdict.m_values] == [1, 2, 3]


class TestClassify:
    def test_octahedron(self):
        g = cocktail_party(3)
        match = classify(GraphAnalysis(g))
        assert match.matched == FamilySpec("cocktailparty", (3,))
        assert verify_isomorphism(from_spec(match.matched), g, match.iso_witness)

    def test_hypercube(self, q4):
        g, _ = q4
        match = classify(GraphAnalysis(g))
        assert match.matched == FamilySpec("hypercube", (4,))

    def test_gosset(self, gosset_graph):
        g, _ = gosset_graph
        match = classify(GraphAnalysis(g))
        assert match.matched == FamilySpec("gosset", ())

    def test_q2_times_cp3_rejected(self):
        g = cartesian_product(hypercube(2), cocktail_party(3))
        match = classify(GraphAnalysis(g))
        assert match.matched is None and "not Bonnet-Myers sharp" in match.reason

    def test_product_match(self, cp3_squared):
        g, _ = cp3_squared
        match = classify(GraphAnalysis(g))
        assert match.matched is not None and match.matched.family == "product"
        assert verify_isomorphism(from_spec(match.matched), g, match.iso_witness)

    def test_mixed_product_match(self):
        # 160 vertices; the matched factor order differs from the input's
        g = cartesian_product(johnson(6, 3), cocktail_party(4))
        assert bm_sharpness(GraphAnalysis(g)).inf_edge_kappa == Fraction(2, 5)
        match = classify(GraphAnalysis(g))
        assert match.matched is not None and match.matched.family == "product"
        assert verify_isomorphism(from_spec(match.matched), g, match.iso_witness)

    def test_petersen_unmatched(self, petersen):
        g, _ = petersen
        match = classify(GraphAnalysis(g))
        assert match.matched is None

    def test_d2_sharp_is_cp(self):
        # every (D,2)-sharp graph here gets recognized as a cocktail party
        for n in (3, 4, 5):
            g = cocktail_party(n)
            match = classify(GraphAnalysis(g))
            assert match.matched == FamilySpec("cocktailparty", (n,))

    def test_dd_sharp_is_hypercube(self):
        for n in (2, 3, 4):
            g = hypercube(n)
            match = classify(GraphAnalysis(g))
            assert match.matched == FamilySpec("hypercube", (n,))

    def test_single_edge(self):
        g = complete(2)
        match = classify(GraphAnalysis(g))
        assert match.matched == FamilySpec("hypercube", (1,))
