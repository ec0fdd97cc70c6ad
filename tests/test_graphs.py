"""Graph core: construction, metric structure, degree decompositions,
structural predicates, products."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab import graphs
from curvlab.errors import (
    Disconnected,
    DuplicateEdge,
    EmptySphere,
    IdentityViolated,
    NotAnEdge,
    SelfLoop,
    VertexOutOfRange,
    WrongDistance,
)
from curvlab.families import (
    cocktail_party,
    complete,
    doob,
    hamming,
    hypercube,
    johnson,
    lattice,
    shrikhande,
)
from curvlab.graphs import (
    MAX_VERTICES,
    build_graph,
    cartesian_product,
    degree_triple,
    distances,
    induced_subgraph,
    intersection_array,
    interval,
    is_cocktail_party,
    is_strongly_regular,
    mu_graph,
    poles_and_antipoles,
    sphere_averages,
    triangle_count_edge,
    triangle_count_vertex,
)

from helpers import (
    IRREGULAR_EDGES,
    LOPSIDED_EDGES,
    SAMPLE_GRAPHS,
    SHAPES30_EDGES,
    cocktail_party_bruteforce,
    intersection_array_by_pairs,
    interval_bruteforce,
    random_regular_graph,
    record_calls,
    sample_graph,
    spheres_by_sets,
    srg_params_by_sets,
)


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.degrees == (1, 1)

    def test_four_cycle(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.is_regular() == 2

    def test_rejects_duplicate(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [(0, 3)])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(VertexOutOfRange, match="^label count does not match vertex count$"):
            build_graph(2, [], labels=["a"])

    def test_rejects_vertex_count_above_cap(self):
        # refused before any allocation, so no test needs a graph near the cap
        for n in (MAX_VERTICES + 1, 10**10):
            with pytest.raises(VertexOutOfRange, match="MAX_VERTICES"):
                build_graph(n, [])

    def test_adjacency_sorted_symmetric(self):
        g = build_graph(4, [(2, 0), (3, 1), (0, 3)])
        assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adjacency)
        for u in range(4):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]


class TestDistances:
    def test_hypercube_diameter(self):
        assert distances(hypercube(3)).diameter == 3

    def test_cp_diameter(self):
        assert distances(cocktail_party(3)).diameter == 2

    def test_gosset_diameter(self, gosset_graph):
        assert gosset_graph[1].diameter == 3

    def test_disconnected_flagged(self):
        d = distances(build_graph(4, [(0, 1), (2, 3)]))
        assert not d.is_connected
        assert d.d(0, 2) == -1

    def test_graph_without_vertices_not_connected(self):
        # a connected graph has exactly one component; this one has none
        g = build_graph(0, [])
        assert not distances(g).is_connected
        with pytest.raises(Disconnected, match="^input graph is disconnected$"):
            graphs.require_connected(g)

    def test_adjacency_iff_distance_one(self, q3):
        g, d = q3
        for u in range(g.n):
            for v in range(g.n):
                assert (d.d(u, v) == 1) == g.has_edge(u, v)

    def test_metric_axioms(self, j63):
        import numpy as np

        _, d = j63
        m = d.dist
        assert (m == m.T).all()
        assert (np.diag(m) == 0).all()
        n = m.shape[0]
        for x in range(n):
            for y in range(n):
                assert (m[x] + m[y] >= m[x, y]).all()


class TestCachedViews:
    """Each graph computes its dense adjacency and distance oracle once."""

    def test_oracle_is_cached(self):
        g = hypercube(3)
        assert distances(g) is distances(g)
        assert g.dense_adjacency is g.dense_adjacency

    def test_views_are_read_only(self):
        g = hypercube(3)
        with pytest.raises(ValueError):
            distances(g).dist[0, 1] = 2
        with pytest.raises(ValueError):
            g.dense_adjacency[0, 1] = 0.0


class TestInterval:
    def test_hypercube_antipodal_pair_covers(self, q3):
        g, _ = q3
        assert interval(g, 0, 7) == frozenset(range(8))

    def test_same_vertex(self, q3):
        g, _ = q3
        assert interval(g, 5, 5) == frozenset({5})

    def test_four_cycle_opposite(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert interval(g, 0, 2) == frozenset(range(4))

    def test_matches_bruteforce(self, j63):
        g, d = j63
        for x in range(0, g.n, 3):
            for y in range(g.n):
                assert interval(g, x, y) == interval_bruteforce(d, x, y)


class TestDegreeTriples:
    def test_hypercube_neighbour(self, q3):
        g, _ = q3
        t = degree_triple(g, 0, 1)
        assert (t.d_minus, t.d_zero, t.d_plus) == (1, 0, 2)

    def test_cp3_neighbour(self, cp3):
        g, _ = cp3
        y = g.adjacency[0][0]
        t = degree_triple(g, 0, y)
        assert (t.d_minus, t.d_zero, t.d_plus) == (1, 2, 1)

    def test_gosset_neighbour(self, gosset_graph):
        g, _ = gosset_graph
        y = g.adjacency[0][0]
        t = degree_triple(g, 0, y)
        assert (t.d_minus, t.d_zero, t.d_plus) == (1, 16, 10)

    def test_triple_sums_to_degree(self, demi6):
        g, _ = demi6
        for y in range(1, g.n):
            t = degree_triple(g, 0, y)
            assert t.d_minus + t.d_zero + t.d_plus == g.degree(y)


class TestSphereAverages:
    def test_q3_first_sphere(self, q3):
        g, _ = q3
        assert sphere_averages(g, 0, 1) == (1, 0, 2)

    def test_q3_last_sphere(self, q3):
        g, _ = q3
        assert sphere_averages(g, 0, 3) == (3, 0, 0)

    def test_j63_second_sphere(self, j63):
        g, _ = j63
        assert sphere_averages(g, 0, 2)[0] == 4

    def test_empty_sphere_raises(self, q3):
        g, _ = q3
        with pytest.raises(EmptySphere):
            sphere_averages(g, 0, 4)

    def test_edge_double_counting(self, demi6):
        # av_k^+ |S_k| = av_{k+1}^- |S_{k+1}| for regular graphs
        g, d = demi6
        for x in (0, 5):
            for k in range(0, d.diameter):
                sk = d.sphere(x, k) if k > 0 else (x,)
                sk1 = d.sphere(x, k + 1)
                if k == 0:
                    out_mass = Fraction(g.degree(x))
                else:
                    out_mass = sphere_averages(g, x, k)[2] * len(sk)
                in_mass = sphere_averages(g, x, k + 1)[0] * len(sk1)
                assert out_mass == in_mass


class TestTriangles:
    def test_bipartite_edge(self, q4):
        g, _ = q4
        assert triangle_count_edge(g, 0, 1) == 0

    def test_gosset_edge(self, gosset_graph):
        g, _ = gosset_graph
        assert triangle_count_edge(g, 0, g.adjacency[0][0]) == 16

    def test_cp3_edge(self, cp3):
        g, _ = cp3
        assert triangle_count_edge(g, 0, g.adjacency[0][0]) == 2

    def test_not_an_edge(self, cp3):
        g, _ = cp3
        with pytest.raises(NotAnEdge):
            triangle_count_edge(g, 0, 1)

    def test_vertex_edge_relation(self, j63):
        # 2 #tri(x) = sum over incident edges of #tri(x,y)
        g, _ = j63
        for x in range(g.n):
            assert 2 * triangle_count_vertex(g, x) == sum(
                triangle_count_edge(g, x, y) for y in g.adjacency[x]
            )


class TestMuGraphs:
    def test_hypercube_two_points(self, q4):
        g, d = q4
        z = d.sphere(0, 2)[0]
        assert is_cocktail_party(mu_graph(g, 0, z)) == 1

    def test_johnson_quadrangle(self, j63):
        g, d = j63
        z = d.sphere(0, 2)[0]
        assert is_cocktail_party(mu_graph(g, 0, z)) == 2

    def test_gosset_cp5(self, gosset_graph):
        g, d = gosset_graph
        z = d.sphere(0, 2)[0]
        assert is_cocktail_party(mu_graph(g, 0, z)) == 5

    def test_wrong_distance(self, q3):
        g, _ = q3
        with pytest.raises(WrongDistance):
            mu_graph(g, 0, 1)


class TestBallRuns:
    """The 2-ball reader against spheres built from the adjacency sets."""

    @pytest.fixture(scope="class")
    def corpus(self):
        corpus = [sample_graph(name) for name in SAMPLE_GRAPHS]
        edge_lists = ((6, LOPSIDED_EDGES), (7, IRREGULAR_EDGES), (30, SHAPES30_EDGES))
        return corpus + [build_graph(n, edges) for n, edges in edge_lists]

    @pytest.mark.parametrize("block", [1 << 14, 1])
    def test_blocks_equal_the_set_spheres(self, monkeypatch, corpus, block):
        monkeypatch.setattr(graphs, "_BALL_BLOCK", block)
        mixed = checked = 0
        for g in corpus:
            odd_first = [*range(1, g.n, 2), *range(0, g.n, 2)]
            for xs in (list(range(g.n)), odd_first, [g.n - 1, 0, g.n - 1, 0, 1]):
                covered: list[int] = []
                for run in graphs._ball_runs(g, xs):
                    positions = sorted(i for pos, _, _ in run for i in pos.tolist())
                    # a run is the next stretch of xs, within the bound or of one vertex
                    assert positions == list(range(len(covered), len(covered) + len(positions)))
                    entries = sum(blocks.size for _, _, blocks in run)
                    assert entries <= block or len(positions) == 1
                    assert len({blocks.shape[1:] for _, _, blocks in run}) == len(run)
                    for pos, s2, blocks in run:
                        assert pos.tolist() == sorted(pos.tolist())
                        for i, got_s2, got in zip(pos.tolist(), s2, blocks):
                            s1, want_s2 = spheres_by_sets(g, xs[i])
                            assert got_s2.tolist() == want_s2
                            want = [[float(g.has_edge(y, v)) for v in s1 + want_s2] for y in s1]
                            assert got.tolist() == want
                            checked += 1
                    mixed += len(run) > 1
                    covered += positions
                assert covered == list(range(len(xs)))
        assert checked >= 1300
        # several shapes share a run at 2^14 entries; at 1 every run is one vertex
        assert (mixed > 0) == (block > 1)

    def test_no_vertex_no_run(self, q3):
        g, _ = q3
        assert list(graphs._ball_runs(g, [])) == []


class TestCocktailPartyRecognition:
    def test_octahedron(self):
        assert is_cocktail_party(cocktail_party(3)) == 3

    def test_two_isolated_points(self):
        assert is_cocktail_party(build_graph(2, [])) == 1

    def test_four_cycle(self):
        assert is_cocktail_party(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == 2

    def test_rejects_path(self):
        assert is_cocktail_party(build_graph(3, [(0, 1), (1, 2)])) is None

    @given(st.integers(min_value=0, max_value=8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_complement_oracle(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if n % 2 == 0 and data.draw(st.booleans()):
            # near a cocktail party graph: every pair but a perfect
            # matching, then a few pairs toggled
            perm = data.draw(st.permutations(range(n)))
            matching = {tuple(sorted(perm[i : i + 2])) for i in range(0, n, 2)}
            edges = {e for e in pairs if e not in matching}
            if pairs:
                for e in data.draw(st.lists(st.sampled_from(pairs), max_size=2)):
                    edges ^= {e}
        else:
            edges = {e for e in pairs if data.draw(st.booleans())}
        g = build_graph(n, sorted(edges))
        assert is_cocktail_party(g) == cocktail_party_bruteforce(g)


class TestStronglyRegular:
    def test_schlafli_params(self):
        from curvlab.families import schlafli

        p = is_strongly_regular(schlafli())
        assert (p.nu, p.k, p.lam, p.mu) == (27, 16, 10, 8)

    def test_lattice3(self):
        from curvlab.families import lattice

        p = is_strongly_regular(lattice(3))
        # k = 2(n-1): each rook move fixes the row or the column
        assert (p.nu, p.k, p.lam, p.mu) == (9, 4, 1, 2)

    def test_path_not_srg(self):
        assert is_strongly_regular(build_graph(3, [(0, 1), (1, 2)])) is None

    def test_edgeless_wildcard(self):
        p = is_strongly_regular(build_graph(5, []))
        assert (p.nu, p.k, p.lam, p.mu) == (5, 0, None, 0)

    def test_complete_excluded(self):
        assert is_strongly_regular(complete(5)) is None

    def test_cp_params(self):
        for n in (3, 4, 5):
            p = is_strongly_regular(cocktail_party(n))
            assert (p.nu, p.k, p.lam, p.mu) == (2 * n, 2 * n - 2, 2 * n - 4, 2 * n - 2)

    def test_sphere_params_read_off_neighbour_sets(self):
        # the parameters of S1(x) read in g equal those of the built sphere,
        # srg, edgeless and neither alike
        rng = random.Random(17)
        corpus = [sample_graph(name) for name in SAMPLE_GRAPHS]
        corpus += [random_regular_graph(n, deg, rng) for n, deg in [(10, 4), (12, 5), (9, 6)] * 3]
        kinds = set()
        for g in corpus:
            for x in range(g.n):
                sphere, _ = induced_subgraph(g, g.adjacency[x])
                want = is_strongly_regular(sphere)
                assert srg_params_by_sets(g, g.neighbor_set(x)) == want
                kinds.add(None if want is None else want.lam is None)
        assert kinds == {None, True, False}

    def test_empty_set_has_no_params(self):
        assert graphs._srg_params_stack(np.zeros((2, 0, 0))) == [None, None]
        assert is_strongly_regular(build_graph(0, [])) is None


class TestIntersectionArray:
    def test_hypercube(self, q4):
        g, _ = q4
        assert intersection_array(g) == ((4, 3, 2, 1), (1, 2, 3, 4))

    def test_johnson(self, j63):
        g, _ = j63
        assert intersection_array(g) == ((9, 4, 1), (1, 4, 9))

    def test_gosset(self, gosset_graph):
        g, _ = gosset_graph
        b, c = intersection_array(g)
        assert (c[1], c[2]) == (10, 27)

    def test_non_distance_regular(self):
        # path P4 is not distance-regular (and not regular)
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert intersection_array(g) is None

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert intersection_array(g) == ((), ())

    @pytest.mark.parametrize("name", SAMPLE_GRAPHS)
    def test_matches_pair_scan_on_samples(self, name):
        g = sample_graph(name)
        d = distances(g)
        assert intersection_array(g) == intersection_array_by_pairs(g, d)

    def test_matches_pair_scan_on_small_and_random_graphs(self):
        rng = random.Random(7)
        cases = [build_graph(1, []), build_graph(2, [(0, 1)])]
        cases += [random_regular_graph(n, deg, rng) for n, deg in [(8, 3), (10, 4), (12, 3)] * 5]
        arrays = []
        for g in cases:
            d = distances(g)
            arrays.append(intersection_array(g))
            assert arrays[-1] == intersection_array_by_pairs(g, d)
        assert arrays[:2] == [((), ()), ((1,), (1,))]
        assert arrays.count(None) > len(arrays) // 2


class TestCartesianProduct:
    def test_k2_square_is_c4(self):
        g = cartesian_product(complete(2), complete(2))
        assert is_cocktail_party(g) == 2

    def test_hypercube_recursion(self):
        from curvlab.isomorphism import find_isomorphism

        g = cartesian_product(cartesian_product(complete(2), complete(2)), complete(2))
        assert find_isomorphism(g, hypercube(3)) is not None

    @pytest.mark.parametrize(
        "factors, build",
        [
            pytest.param(
                lambda: (cocktail_party(3), hypercube(2)), lambda f: cartesian_product(*f), id="cp3xq2"
            ),
            pytest.param(
                lambda: (johnson(6, 3), cocktail_party(2)), lambda f: cartesian_product(*f), id="j63xcp2"
            ),
            pytest.param(lambda: (complete(3), complete(3)), lambda f: lattice(3), id="lattice3"),
            pytest.param(
                lambda: (complete(3),) * 3, lambda f: hamming(3, 3), id="hamming3_3"
            ),
            pytest.param(lambda: (complete(4), shrikhande()), lambda f: doob(1, 1), id="doob1_1"),
        ],
    )
    def test_diameter_additive(self, factors, build):
        # cartesian_product builds no oracle to check this identity itself
        fs = factors()
        d = distances(build(fs))
        assert d.is_connected
        assert d.diameter == sum(distances(f).diameter for f in fs)

    def test_degree_additive(self):
        prod = cartesian_product(johnson(5, 2), complete(3))
        assert prod.is_regular() == 6 + 2

    def test_vertex_count_checked_before_the_edge_list(self, monkeypatch):
        # Q3 x Q3 has 64 vertices; under a cap of 40 no edge list may be built
        monkeypatch.setattr(graphs, "MAX_VERTICES", 40)
        built = record_calls(monkeypatch, "graphs", "build_graph")
        q3 = hypercube(3)
        built.clear()
        with pytest.raises(VertexOutOfRange, match="vertex count 64 above MAX_VERTICES = 40"):
            cartesian_product(q3, q3)
        assert built == []


class TestPoles:
    def test_hypercube_self_centered_unique_antipole(self, q4):
        g, _ = q4
        per_vertex, self_centered = poles_and_antipoles(g)
        assert self_centered
        assert all(len(a) == 1 and a[0] == v ^ 15 for v, a in enumerate(per_vertex))

    def test_path_not_self_centered(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        _, self_centered = poles_and_antipoles(g)
        assert not self_centered

    def test_gosset_self_centered(self, gosset_graph):
        g, _ = gosset_graph
        per_vertex, self_centered = poles_and_antipoles(g)
        assert self_centered and all(len(a) == 1 for a in per_vertex)


class TestIdentityChecks:
    """Identities that hold by construction raise a typed error when broken."""

    def test_triangle_double_count(self, monkeypatch, q3):
        g, _ = q3
        monkeypatch.setattr(graphs, "triangle_count_edge", lambda g, x, y: 1)
        with pytest.raises(IdentityViolated, match="double counting"):
            triangle_count_vertex(g, 0)
