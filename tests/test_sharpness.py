"""Sharpness predicates, structural theorems, and classification."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from curvlab import graphs
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
    induced_subgraph,
    interval,
    poles_and_antipoles,
    triangle_count_edge,
)
from curvlab.isomorphism import automorphism_orbits, verify_isomorphism
from curvlab.sharpness import (
    MuGraphVerdict,
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
    cocktail_party_m_by_sets,
    local_srg_by_sets,
    mu_graphs_by_sets,
    mu_graphs_by_subgraphs,
    random_regular_graph,
    record_calls,
    sample_graph,
    spherical_row_major,
    srg_params_by_sets,
    ssp_ncp_by_loops,
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

    def test_failing_edges_match_the_per_edge_count(self):
        # the triangles read off each matching edge's kappa are
        # triangle_count_edge's
        for name in SAMPLE_GRAPHS:
            g = sample_graph(name)
            ctx = GraphAnalysis(g)
            for m in (0, 1, 2, 16):
                want = tuple(
                    (u, v) for (u, v), value in ctx.edge_kappas.items()
                    if triangle_count_edge(g, u, v) < m or value.method != "matching"
                )
                assert lambda_m_check(ctx, m).failing_edges == want, (name, m)


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
        # one kernel call solves the four edges at the pole, one problem each
        assert [cost.shape[0] for cost, in solves] == [4]

    def test_c5_has_no_matching(self):
        # at each edge of C5 the two far neighbours lie at distance 2
        g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        facts = pole_facts(g, 0)
        assert (facts.triangles_ok, facts.matching_ok, facts.cost_ok) == (True, False, True)
        assert facts.failures == (
            "edge (0,1) has no perfect matching",
            "edge (0,4) has no perfect matching",
        )

    def test_triangle_failures_print_the_count(self, petersen):
        # a pole of Petersen expects 2D/L - 2 = 1 triangle per edge and finds 0
        g, _ = petersen
        facts = pole_facts(g, 0)
        assert not facts.triangles_ok and facts.expected_triangles == 1
        assert facts.failures == tuple(
            f"edge (0,{y}) lies in {triangle_count_edge(g, 0, y)} triangles" for y in g.adjacency[0]
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

    @pytest.mark.parametrize("L", range(2, 9))
    def test_predicted_roots_are_theta_and_minus_two(self, L):
        # the predicted parameters as local_srg_check computes them: theta
        # and -2 are the roots of x^2 - (lambda - mu) x - (k - mu)
        for D in range(L, 12 * L):
            k = Fraction(2 * D, L) - 2
            lam = Fraction(D - 1, L - 1) - 3
            mu = Fraction(2 * (D - L), L * (L - 1))
            theta = Fraction((D - L) * (L - 2), L * (L - 1))
            for root in (theta, Fraction(-2)):
                assert root * root - (lam - mu) * root - (k - mu) == 0
            assert theta >= 0 and (mu > 0 or (k, theta) == (0, 0))

    def test_second_eigenvalue_is_theta_where_it_holds(self):
        # the float eigen-solve the verdict no longer makes, as an oracle
        names = [*SAMPLE_GRAPHS, "hypercube:3", "cocktailparty:5", "johnson:8:4"]
        held = []
        for name in names:
            g = sample_graph(name)
            try:
                verdict = local_srg_check(GraphAnalysis(g))
            except PreconditionUnmet:
                continue
            if not verdict.holds:
                continue
            held.append(name)
            for x in range(g.n):
                sphere, _ = induced_subgraph(g, g.adjacency[x])
                second = np.linalg.eigvalsh(sphere.dense_adjacency)[-2]
                assert abs(second - float(verdict.theta)) <= 1e-9, (name, x)
        assert set(held) == {
            "hypercube:3", "hypercube:4", "cocktailparty:4", "cocktailparty:5",
            "johnson:6:3", "johnson:8:4", "demicube:6", "gosset",
        }

    def test_builds_no_subgraph_and_solves_no_eigenproblem(self, monkeypatch, gosset_graph):
        g, _ = gosset_graph
        ctx = GraphAnalysis(g)
        ctx.bm, ctx.mu_graphs, ctx.poles_and_antipoles  # the preconditions' own work

        def no_solve(*args, **kwargs):
            raise AssertionError("eigen-solve")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        built = record_calls(monkeypatch, "graphs", "induced_subgraph")
        assert local_srg_check(ctx).holds
        assert built == []


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _random_irregular(n, rng):
    """A connected graph on n vertices: a random spanning tree plus random edges."""
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
    return build_graph(n, sorted(edges))


def _c10_1_4():
    """The circulant C10(1, 4): i ~ i +- 1, i +- 4."""
    return build_graph(10, [(i, (i + s) % 10) for i in range(10) for s in (1, 4)])


def _scan_corpus():
    """Every sample graph, random regular and irregular graphs, and a
    relabelled copy of each."""
    rng = random.Random(27)
    corpus = [sample_graph(name) for name in SAMPLE_GRAPHS]
    corpus += [random_regular_graph(n, deg, rng) for n, deg in [(10, 4), (12, 5), (14, 6), (16, 3)] * 2]
    corpus += [_random_irregular(n, rng) for n in (6, 9, 12, 15) * 2]
    corpus.append(_c10_1_4())
    return corpus + [_relabelled(g, rng) for g in corpus]


def _planted_j63():
    """J(6,3), 9-regular of diameter 3, after the first double-edge swap
    away from the closed neighbourhood of vertex 0 that keeps it connected
    of diameter 3: the 1-spheres around the swap lose the predicted
    srg(9, 4, 1, 2), and that of vertex 0 keeps it."""
    g = johnson(6, 3)
    edges = set(g.edges())
    near = {0, *g.adjacency[0]}
    for (a, b), (c, e) in product(sorted(edges), repeat=2):
        if near & {a, b, c, e} or len({a, b, c, e}) < 4:
            continue
        new = {tuple(sorted((a, c))), tuple(sorted((b, e)))}
        if new & edges:
            continue
        planted = build_graph(g.n, sorted((edges - {(a, b), (c, e)}) | new))
        d = distances(planted)
        if d.is_connected and d.diameter == 3:
            return g, planted
    raise AssertionError("no swap found")


def _planted_context(g, planted):
    """The analysis of ``planted`` with the preconditions of ``g`` planted on it."""
    ctx, planted_ctx = GraphAnalysis(g), GraphAnalysis(planted)
    planted_ctx.bm, planted_ctx.mu_graphs = ctx.bm, ctx.mu_graphs
    planted_ctx.poles_and_antipoles = ctx.poles_and_antipoles
    return planted_ctx


class TestStackedScans:
    """The stacked mu-graph and 1-sphere scans against the frozenset loops
    they replaced: the same verdicts, counts, failures and parameters."""

    def test_mu_scan_equals_the_set_loop(self):
        corpus = _scan_corpus()
        verdicts = [mu_graphs_all_cp(g) for g in corpus]
        assert verdicts == [mu_graphs_by_sets(g) for g in corpus]
        assert any(v.holds for v in verdicts)
        assert any(not v.holds and v.m_values for v in verdicts)  # partial counts

    def test_one_vertex_blocks_change_nothing(self, monkeypatch):
        # every run of the scan holds one vertex: failures past the first
        # run, and the counts of the runs before them
        corpus = _scan_corpus()
        monkeypatch.setattr(graphs, "_BALL_BLOCK", 1)
        verdicts = [mu_graphs_all_cp(g) for g in corpus]
        assert verdicts == [mu_graphs_by_sets(g) for g in corpus]
        assert any(v.failure is not None and v.failure[0] > 0 for v in verdicts)

    def test_gosset_spans_several_blocks(self, monkeypatch, gosset_graph):
        g, _ = gosset_graph
        ctx = GraphAnalysis(g)
        ctx.bm, ctx.poles_and_antipoles  # the preconditions' own work
        cp = record_calls(monkeypatch, "graphs", "_cocktail_party_stack")
        assert mu_graphs_all_cp(g) == mu_graphs_by_sets(g) == MuGraphVerdict(True, ((5, 756),), None)
        assert len(cp) > 1
        ctx.mu_graphs = mu_graphs_by_sets(g)
        srg = record_calls(monkeypatch, "graphs", "_srg_params_stack")
        verdict = local_srg_check(ctx)
        assert len(srg) > 1 and sum(len(s) for s, in srg) == g.n
        assert verdict.holds and verdict == local_srg_by_sets(ctx)

    def test_c10_1_4_fails_at_its_third_pair(self):
        # (0, 2) and (0, 3) have two non-adjacent common neighbours, CP(1);
        # (0, 5) has four, 1 4 6 9, with no edge among them, not CP(2)
        g = _c10_1_4()
        want = MuGraphVerdict(False, ((1, 2),), (0, 5))
        assert mu_graphs_all_cp(g) == mu_graphs_by_sets(g) == want

    def test_first_failure_across_block_shapes(self):
        # vertices 0 and 2 share the block shape (3, 2) and are stacked
        # together, vertex 1 has (1, 2); (1, 2) fails before (2, 5) does
        g = build_graph(6, [(0, 1), (0, 2), (0, 5), (2, 3), (2, 4), (3, 5), (4, 5)])
        want = MuGraphVerdict(False, ((1, 2),), (1, 2))
        assert mu_graphs_all_cp(g) == mu_graphs_by_sets(g) == want

    def test_sphere_stacks_equal_the_set_oracle(self):
        # every 1-sphere of the corpus, stacked by degree
        kinds = set()
        for g in _scan_corpus():
            adj = g.dense_adjacency
            by_degree = {}
            for x in range(g.n):
                by_degree.setdefault(g.degree(x), []).append(x)
            for xs in by_degree.values():
                s1 = np.array([g.adjacency[x] for x in xs], dtype=np.intp).reshape(len(xs), -1)
                got = graphs._srg_params_stack(adj[s1[:, :, None], s1[:, None, :]])
                want = [srg_params_by_sets(g, g.neighbor_set(x)) for x in xs]
                assert got == want
                kinds |= {None if p is None else p.lam is None for p in want}
        assert kinds == {None, True, False}

    def test_whole_graph_kernels_equal_the_set_oracles(self):
        for g in _scan_corpus():
            members = frozenset(range(g.n))
            assert graphs.is_strongly_regular(g) == srg_params_by_sets(g, members)
            assert graphs.is_cocktail_party(g) == cocktail_party_m_by_sets(g, members)

    def test_local_srg_equals_the_set_loop(self):
        held = 0
        for g in _scan_corpus():
            if g.is_regular() is None:
                continue
            try:
                verdict = local_srg_check(GraphAnalysis(g))
            except PreconditionUnmet:
                continue
            assert verdict == local_srg_by_sets(GraphAnalysis(g))
            held += verdict.holds
        assert held >= 10

    def test_q4_takes_the_wildcard_route(self, q4):
        # D = L = 4: every 1-sphere is 4 isolated points, (4, 0, *, 0)
        g, _ = q4
        verdict = local_srg_check(GraphAnalysis(g))
        assert verdict.holds and verdict.params == (4, 0, -2, 0) and verdict.theta == 0
        s1 = np.array(g.adjacency, dtype=np.intp)
        stack = g.dense_adjacency[s1[:, :, None], s1[:, None, :]]
        assert graphs._srg_params_stack(stack) == [graphs.SrgParams(4, 0, None, 0)] * g.n

    @pytest.mark.parametrize("block", [1 << 14, 81])
    def test_planted_sphere_fails(self, monkeypatch, block):
        # the preconditions of J(6,3), planted on the swapped graph; at 81
        # entries each run holds one vertex
        planted_ctx = _planted_context(*_planted_j63())
        monkeypatch.setattr(graphs, "_BALL_BLOCK", block)
        verdict = local_srg_check(planted_ctx)
        assert verdict == local_srg_by_sets(planted_ctx)
        assert not verdict.holds and verdict.failure > 0
        assert verdict.params == (9, 4, 1, 2)

    def test_first_failing_sphere_across_block_shapes(self):
        # J(6,3) with 7-8, 15-18 swapped for 7-15, 8-18: its one run holds
        # two ball shapes, and vertex 1, in the later-stacked group, fails
        # before vertex 2 of the first group does
        g = johnson(6, 3)
        planted = build_graph(g.n, sorted((set(g.edges()) - {(7, 8), (15, 18)}) | {(7, 15), (8, 18)}))
        (run,) = graphs._ball_runs(planted, range(planted.n))
        assert [(1 in pos, 2 in pos) for pos, _, _ in run] == [(False, True), (True, False)]
        planted_ctx = _planted_context(g, planted)
        verdict = local_srg_check(planted_ctx)
        assert verdict == local_srg_by_sets(planted_ctx)
        assert not verdict.holds and verdict.failure == 1


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

    def test_block_equals_the_loops(self):
        # the column sums and B B^T of the 2-ball block against a degree
        # triple per 2-sphere vertex and a count per 1-sphere pair
        rng = random.Random(28)
        corpus = [sample_graph(name) for name in SAMPLE_GRAPHS]
        corpus += [random_regular_graph(n, deg, rng) for n, deg in [(8, 3), (10, 3), (12, 4), (16, 5)] * 3]
        kinds = set()
        for g in corpus:
            if g.is_regular() is None or not distances(g).is_connected:
                continue
            for x in range(g.n):
                got = ssp_ncp(g, x)
                assert got == ssp_ncp_by_loops(g, x), (g.n, x)
                kinds.add(got)
        assert {(True, True), (True, False), (False, True)} <= kinds


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
        from curvlab.transport import kappas

        rng = random.Random(7)
        sampled = [tuple(rng.sample(range(g.n), 2)) for _ in range(300)]
        values = kappas(g, g.edges() + sampled)
        assert {value.value for value in values.values()} == {want}

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
