"""Gamma calculus and the infinity-curvature pipeline."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import helpers
from curvlab import bakry_emery
from curvlab.bakry_emery import be_curvature, be_curvatures, conjecture_scan
from curvlab.cli import main
from curvlab.errors import FormCheckFailed, IsolatedVertex
from curvlab.families import (
    cocktail_party,
    complete,
    demi_cube,
    hypercube,
    johnson,
    kneser,
    lattice,
    shrikhande,
)
from curvlab.fixtures import load_fixture
from curvlab.graphs import (
    _ball_runs,
    build_graph,
    cartesian_product,
    degree_triple,
    distances,
    sphere_averages,
)
from curvlab.report import be_row
from helpers import (
    IRREGULAR_EDGES,
    LOPSIDED_EDGES,
    SAMPLE_GRAPHS,
    SHAPES30_EDGES,
    ball_basis_block,
    ball_block,
    be_closed_form_scalar,
    be_curvature_scalar,
    be_upper_bound,
    curvature_matrix_exact,
    curvature_matrix_scalar,
    dense_gamma_forms,
    gamma2_matrix,
    gamma2_value,
    gamma_forms,
    gamma_value,
    local_forms,
    ordered_gamma_forms,
    random_regular_graph,
    record_calls,
    s1pp_sharpness_test,
    s1pp_weights_by_pairs,
    sample_graph,
    schur_and_bisection,
    stacked_forms,
)

TOL = 1e-7


class TestGammaValues:
    def test_k2_identity_function(self):
        g = complete(2)
        f = {0: Fraction(0), 1: Fraction(1)}
        assert gamma_value(g, f, f, 0) == Fraction(1, 2)

    def test_constant_kernel(self, q3):
        g, _ = q3
        f = {v: Fraction(3) for v in range(g.n)}
        assert gamma_value(g, f, f, 0) == 0
        assert gamma2_value(g, f, f, 0) == 0

    def test_q3_distance_gradient(self, q3):
        g, d = q3
        f = {v: Fraction(d.d(0, v)) for v in range(g.n)}
        assert gamma_value(g, f, f, 0) == Fraction(1, 2)

    def test_forms_agree_with_exact_values(self, cp3):
        g, _ = cp3
        form_g, form_g2 = gamma_forms(g, 0)
        f = {v: Fraction(v % 3 - 1) for v in range(g.n)}
        vec1 = [float(f[v]) for v in form_g.basis]
        vec2 = [float(f[v]) for v in form_g2.basis]
        import numpy as np

        got1 = float(np.array(vec1) @ form_g.matrix @ np.array(vec1))
        got2 = float(np.array(vec2) @ form_g2.matrix @ np.array(vec2))
        assert abs(got1 - float(gamma_value(g, f, f, 0))) < 1e-12
        assert abs(got2 - float(gamma2_value(g, f, f, 0))) < 1e-12

    def test_form_entries_are_exact_integer_ratios(self, j63, gosset_graph):
        # for a D-regular graph every Gamma2 entry at x is an integer over
        # 4 D^2, so the float assembly must sit exactly on that lattice
        import numpy as np

        for g, _ in (j63, gosset_graph):
            deg = g.is_regular()
            _, form_g2 = gamma_forms(g, 0)
            scaled = form_g2.matrix * (4.0 * deg * deg)
            assert np.abs(scaled - np.round(scaled)).max() < 1e-9


class TestLocalAssembly:
    """The forms assembled on B2(x) against the dense n x n assembly."""

    FIXTURES = ("q3", "q4", "cp3", "cp4", "j63", "demi6", "gosset_graph", "petersen", "cp3_squared")

    @pytest.fixture(scope="class")
    def corpus(self, request):
        graphs = [request.getfixturevalue(name)[0] for name in self.FIXTURES]
        graphs += [
            load_fixture("chang1"),
            build_graph(5, [(i, (i + 1) % 5) for i in range(5)]),
            build_graph(6, LOPSIDED_EDGES),
            build_graph(7, IRREGULAR_EDGES),
        ]
        rng = random.Random(8)
        graphs += [random_regular_graph(n, deg, rng) for n, deg in ((10, 3), (12, 4), (14, 5))]
        return graphs

    def test_local_forms_equal_dense_restriction(self, corpus):
        checked = 0
        for g in corpus:
            d = distances(g)
            for x in range(g.n):
                basis, ds, gx, g2x = local_forms(g, x)
                s1, s2 = d.sphere(x, 1), d.sphere(x, 2)
                assert basis == [x, *s1, *s2] and ds == len(s1)
                dense_g, dense_g2 = dense_gamma_forms(g, x)
                idx = np.ix_(basis, basis)
                assert np.abs(gx - dense_g[idx]).max() <= 1e-12
                assert np.abs(g2x - dense_g2[idx]).max() <= 1e-12
                checked += 1
        assert checked >= 250

    def test_dense_gamma2_vanishes_outside_the_2_ball(self, corpus):
        outside_seen = 0
        for g in corpus:
            d = distances(g)
            for x in range(g.n):
                dense_g, dense_g2 = dense_gamma_forms(g, x)
                beyond1, beyond2 = d.dist[x] > 1, d.dist[x] > 2
                assert not dense_g[beyond1].any() and not dense_g[:, beyond1].any()
                assert np.abs(dense_g2[beyond2]).max(initial=0.0) <= 1e-12
                assert np.abs(dense_g2[:, beyond2]).max(initial=0.0) <= 1e-12
                outside_seen += int(beyond2.any())
        # q3, q4, demi6, cp3_squared, Chang1 and the random graphs reach past B2
        assert outside_seen >= 100

    def test_scatter_repeats_the_per_neighbour_sum(self, corpus):
        # the ordered scatter makes the float additions of one m x m Gamma
        # matrix per neighbour: equal entries, signed zeros included
        checked = 0
        for g in corpus:
            for x in range(g.n):
                got, want = local_forms(g, x), ordered_gamma_forms(g, x)
                assert got[:2] == want[:2]
                for a, b in zip(got[2:], want[2:]):
                    assert np.array_equal(a, b)
                    assert np.array_equal(np.signbit(a), np.signbit(b))
                checked += 1
        assert checked >= 250

    def test_s1pp_weights_match_the_pair_loop(self, corpus):
        seen = set()
        for g in corpus:
            for x in range(g.n):
                adj = ball_block(g, x)[2][None]
                out = bakry_emery._out_degrees(adj)[0].tolist()
                got = bakry_emery._s1pp_weights(adj)[0]
                want = s1pp_weights_by_pairs(g, x)
                assert np.abs(got - want).max() <= 1e-12
                applicable, _, passes = s1pp_sharpness_test(g, x)
                assert (applicable, passes) == _s1pp_verdict(want, g.degree(x), out)
                seen.add((applicable, passes))
        # applicable and not, passing and failing all occur in the corpus
        assert {(False, None), (True, True), (True, False)} <= seen

    def test_gamma_forms_read_the_local_assembly(self, j63):
        g, _ = j63
        form_g, form_g2 = gamma_forms(g, 5)
        basis, ds, gx, g2x = local_forms(g, 5)
        assert form_g.basis == tuple(basis[: 1 + ds]) and form_g2.basis == tuple(basis)
        assert np.array_equal(form_g.matrix, gx[: 1 + ds, : 1 + ds])
        assert np.array_equal(form_g2.matrix, g2x)


def _s1pp_verdict(w, deg, out):
    """(applicable, passes) of the S1'' test read off the weights ``w``."""
    if len(set(out)) != 1:
        return False, None
    eigs = np.linalg.eigvalsh(np.diag(w.sum(axis=1)) - w)
    nonzero = eigs[eigs > 1e-9]
    return True, bool(nonzero.size) and nonzero[0] >= deg / 2.0 - TOL


class TestClosedForms:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_graphs(self, n):
        g = complete(n)
        report = schur_and_bisection(g, 0)
        want = (n - 1 + 3) / (2 * (n - 1))
        assert abs(report.curvature - want) < TOL
        assert report.is_sharp

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3)])
    def test_johnson(self, n, k):
        g = johnson(n, k)
        report = schur_and_bisection(g, 0)
        assert abs(report.curvature - (n + 2) / (2 * k * (n - k))) < TOL

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_hypercubes(self, n):
        g = hypercube(n)
        report = schur_and_bisection(g, 0)
        assert abs(report.curvature - 2 / n) < TOL
        assert report.is_sharp


class TestLocality:
    def test_no_distance_oracle(self, monkeypatch):
        # every Bakry-Emery quantity at x is read off the 2-ball B2(x)
        g = hypercube(3)
        calls = record_calls(monkeypatch, "graphs", "distances")
        report = be_curvature(g, 0)
        assert calls == []
        assert abs(report.curvature - 2 / 3) < TOL and report.is_sharp


class TestUpperBound:
    def test_triangle_free(self, q4):
        g, _ = q4
        assert be_upper_bound(g, 0) == Fraction(2, 4)

    def test_gosset(self, gosset_graph):
        g, _ = gosset_graph
        assert be_upper_bound(g, 0) == Fraction(2, 27) + Fraction(216, 27 * 27)

    def test_demi5(self):
        g = demi_cube(5)
        assert be_upper_bound(g, 0) == Fraction(1, 2)

    def test_curvature_below_bound(self, cp4, j63):
        for g, _ in (cp4, j63):
            for report in be_curvatures(g, range(g.n)):
                assert report.curvature <= float(report.upper_bound) + 1e-9


class TestS1ppTest:
    def test_hypercube_passes(self, q4):
        g, _ = q4
        applicable, lam1, passes = s1pp_sharpness_test(g, 0)
        assert applicable and passes
        assert abs(lam1 - 2.0) < TOL  # equality case D/2

    def test_gosset_passes(self, gosset_graph):
        g, _ = gosset_graph
        applicable, lam1, passes = s1pp_sharpness_test(g, 0)
        assert applicable and passes and lam1 >= 13.5 - TOL

    def test_demi5_sharp_below_dl_value(self):
        # the odd demi-cube attains its local upper bound 1/2, which sits
        # strictly below 1/D + 1/L = 3/5
        g = demi_cube(5)
        report = schur_and_bisection(g, 0)
        applicable, _, passes = s1pp_sharpness_test(g, 0)
        assert applicable and passes
        assert abs(report.curvature - 1 / 2) < TOL
        assert report.is_sharp
        assert report.curvature < 1 / 10 + 1 / 2 - TOL

    def test_irregular_sphere_not_applicable(self):
        # pentagon prism-ish graph where out-degrees differ
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        applicable, lam1, passes = s1pp_sharpness_test(g, 0)
        assert applicable  # C5 is S1-out regular
        g2 = build_graph(6, LOPSIDED_EDGES)
        out = s1pp_sharpness_test(g2, 0)
        assert out[0] in (True, False)  # smoke: no crash on a lopsided sphere


def _equivalence_corpus():
    corpus = [
        hypercube(3),
        cocktail_party(3),
        johnson(5, 2),
        demi_cube(5),
        kneser(5, 2),
        shrikhande(),
        complete(5),
        lattice(3),
        kneser(7, 2),
        build_graph(5, [(i, (i + 1) % 5) for i in range(5)]),
        load_fixture("chang1"),
    ]
    rng = random.Random(5)
    return corpus + [random_regular_graph(rng.choice([8, 10]), 4, rng) for _ in range(3)]


class TestSharpnessEquivalence:
    def test_value_sharpness_iff_sphere_test(self):
        # two independent routes must agree: equality of the curvature with
        # its local upper bound, and the weighted 1-sphere eigenvalue test
        checked = 0
        for g in _equivalence_corpus():
            for x in range(min(g.n, 4)):
                applicable, lam1, passes = s1pp_sharpness_test(g, x)
                if not applicable:
                    continue
                rep = be_curvature(g, x)
                value_sharp = abs(rep.curvature - float(rep.upper_bound)) < TOL
                assert value_sharp == passes, (g.n, x, rep.curvature, lam1)
                checked += 1
        assert checked >= 40

    def test_partition_out_degrees_match_sphere_averages(self):
        # the 2-ball reader is the only source of S1, S2 and, through its
        # adjacency block, the S1 out-degrees; the distance oracle reads the
        # same off its rows
        for g in _equivalence_corpus():
            d = distances(g)
            for x in range(g.n):
                s1, s2, adj = ball_block(g, x)
                out = bakry_emery._out_degrees(adj[None])[0].tolist()
                assert (tuple(s1), tuple(s2)) == (d.sphere(x, 1), d.sphere(x, 2))
                assert out == [degree_triple(g, x, y).d_plus for y in s1]
                assert Fraction(int(sum(out)), len(s1)) == sphere_averages(g, x, 1)[2]


class TestProductRule:
    def test_min_rule_on_products(self):
        # K(G1 x G2) = min(D1 K1, D2 K2) / (D1 + D2)
        cases = [
            (hypercube(2), complete(3)),
            (cocktail_party(3), cocktail_party(3)),
        ]
        for g1, g2 in cases:
            k1 = be_curvature(g1, 0).curvature
            k2 = be_curvature(g2, 0).curvature
            d1, d2 = g1.is_regular(), g2.is_regular()
            prod = cartesian_product(g1, g2)
            got = be_curvature(prod, 0).curvature
            want = min(d1 * k1, d2 * k2) / (d1 + d2)
            assert abs(got - want) < TOL


def _scan(g):
    return conjecture_scan(g, be_curvatures(g, range(g.n)))


class TestConjectureScan:
    def test_k5(self):
        g = complete(5)
        report = _scan(g)
        assert abs(report.inf_curvature - 7 / 8) < TOL
        assert report.bound == Fraction(1, 4) + Fraction(1, 1)
        assert report.holds and report.weak_holds

    def test_petersen_triangle_free(self, petersen):
        g, _ = petersen
        report = _scan(g)
        assert report.holds
        assert report.weak_bound == report.bound  # no triangles

    def test_shrikhande(self):
        g = shrikhande()
        report = _scan(g)
        assert report.holds

    def test_equality_on_self_centered_sharp_families(self, q4, cp4, j63, demi6):
        # margin is exactly zero (within tolerance) for these fixtures
        for g, _ in (q4, cp4, j63, demi6):
            report = _scan(g)
            assert report.holds and abs(report.margin) < TOL


class TestConsistencyChecks:
    """A failed internal check is a typed verification error, exit 4 in the CLI."""

    @pytest.mark.parametrize("name", SAMPLE_GRAPHS)
    def test_bisection_confirms_schur_on_sample_graphs(self, name):
        g = sample_graph(name)
        for x in (0, g.n - 1):
            report = schur_and_bisection(g, x)
            assert report.curvature <= float(report.upper_bound) + TOL

    def test_schur_bisection_disagreement(self, monkeypatch, q3):
        g, _ = q3
        monkeypatch.setattr(helpers, "curvature_by_bisection", lambda forms, lo, hi: lo)
        with pytest.raises(FormCheckFailed, match="disagree at 0"):
            schur_and_bisection(g, 0)

    @pytest.mark.parametrize("which", ["gosset", "lopsided"])
    def test_one_ball_partition_per_vertex(self, monkeypatch, which, gosset_graph):
        # the curvature, the upper bound and the S1'' test share one block:
        # each vertex is in exactly one group of one run of the reader
        g = gosset_graph[0] if which == "gosset" else build_graph(6, LOPSIDED_EDGES)
        runs = record_calls(monkeypatch, "bakry_emery", "_ball_runs")
        sweeps = record_calls(monkeypatch, "bakry_emery", "_sweep")
        be_curvatures(g, range(g.n))
        assert [list(xs) for _, xs in runs] == [list(range(g.n))]
        assert sorted(x for _, vertices, _ in sweeps for x in vertices) == list(range(g.n))

    def test_regular_graph_criteria_are_null_off_regular_graphs(self):
        # the upper bound and the S1'' test are both stated for D-regular
        # graphs, so an irregular graph's rows print neither
        g = build_graph(7, IRREGULAR_EDGES)
        for report in be_curvatures(g, range(g.n)):
            row = be_row(report)
            assert (row["upper_bound"], row["s1_out_regular"], row["s1pp_lambda1"]) == (None,) * 3
            assert row["sharp"] is False
        # asked directly, the S1'' test still answers at the S1-out regular vertex 2
        applicable, lam1, _ = s1pp_sharpness_test(g, 2)
        assert applicable and abs(lam1 - 1.5) < TOL

    def test_upper_bound_disagreement_exits_4(self, monkeypatch, capsys, q3):
        g, _ = q3
        count = bakry_emery._triangles
        monkeypatch.setattr(bakry_emery, "_triangles", lambda adj: count(adj) + 1)
        with pytest.raises(FormCheckFailed):
            be_upper_bound(g, 0)
        assert main(["bakry-emery", "hypercube:3", "--vertex", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: upper bound expressions disagree\n"


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _exact(report):
    """A report with its floats as ``float.hex``, so equality is bit for bit."""
    lam1 = report.s1pp_lambda1
    return (
        report.vertex, report.curvature.hex(), report.upper_bound, report.is_sharp,
        report.s1_out_regular, None if lam1 is None else lam1.hex(),
    )


def _runs(g):
    """The group sizes of each run that the 2-ball reader makes of g's
    vertices in order."""
    return [[len(pos) for pos, _, _ in run] for run in _ball_runs(g, range(g.n))]


def _has_groups(runs) -> bool:
    """Whether some run holds more than one ball shape."""
    return any(len(run) > 1 for run in runs)


class TestStackedSweep:
    """``be_curvatures`` stacks the vertices of one ball shape in blocks;
    every value equals the one-vertex closed form bit for bit, whatever the
    groups and blocks hold, and the one-vertex Schur pass it replaced
    within 1e-12."""

    @pytest.fixture(scope="class")
    def corpus(self):
        graphs = [sample_graph(name) for name in SAMPLE_GRAPHS]
        graphs += [build_graph(6, LOPSIDED_EDGES), build_graph(7, IRREGULAR_EDGES)]
        rng = random.Random(25)
        graphs += [
            random_regular_graph(n, deg, rng) for n, deg in ((10, 3), (12, 4), (14, 5), (20, 6), (30, 7))
        ]
        # relabelling moves vertices between groups and between blocks
        picked = [g for g in graphs if _has_groups(_runs(g)) or len(_runs(g)) > 1]
        return graphs + [_relabelled(g, rng) for g in picked]

    def test_corpus_has_groups_and_blocks(self, corpus):
        runs = [_runs(g) for g in corpus]
        assert sum(_has_groups(r) for r in runs) >= 6
        assert sum(len(r) > 1 for r in runs) >= 4

    def test_sweep_equals_the_one_vertex_pass(self, corpus):
        checked = 0
        for g in corpus:
            want = [_exact(be_closed_form_scalar(g, x)) for x in range(g.n)]
            rows = be_curvatures(g, range(g.n))
            assert [_exact(r) for r in rows] == want
            # another order fills the blocks with other vertices
            odd_first = [*range(1, g.n, 2), *range(0, g.n, 2)]
            assert [_exact(r) for r in be_curvatures(g, odd_first)] == [want[x] for x in odd_first]
            # the Schur route: the same flags, and the value within 1e-12
            for x, row in enumerate(rows):
                schur = be_curvature_scalar(g, x)
                assert abs(row.curvature - schur.curvature) <= 1e-12
                assert _exact(row)[2:] == _exact(schur)[2:]
            checked += g.n
        assert checked >= 1000

    def test_stacked_forms_equal_the_per_neighbour_sum(self, corpus):
        # a whole shape group in one stack: each slice takes the float
        # additions of one m x m Gamma matrix per neighbour, signed zeros too
        for g in corpus[-8:]:
            groups: dict = {}
            for x in range(g.n):
                basis, adj = ball_basis_block(g, x)
                groups.setdefault(adj.shape, []).append((basis, adj))
            for (k, _), members in groups.items():
                bases = [basis for basis, _ in members]
                forms = stacked_forms(bases, k, np.stack([adj for _, adj in members]))
                for i, basis in enumerate(bases):
                    want = ordered_gamma_forms(g, basis[0])
                    assert (forms[0][i], forms[1]) == want[:2]
                    for a, b in zip(forms[2:], want[2:]):
                        assert np.array_equal(a[i].view(np.int64), b.view(np.int64))

    def test_one_vertex_empty_and_subset(self, q3):
        g, _ = q3
        assert be_curvatures(g, []) == []
        rows = be_curvatures(g, range(g.n))
        assert be_curvatures(g, [5, 2, 5]) == [rows[5], rows[2], rows[5]]
        assert [be_curvature(g, x) for x in range(g.n)] == rows

    def test_reads_no_distance_oracle(self, monkeypatch):
        # the 2-spheres come off the adjacency: a fresh graph builds no oracle
        g = build_graph(30, SHAPES30_EDGES)
        oracles = record_calls(monkeypatch, "_kernels", "bfs_all_pairs")
        be_curvatures(g, range(g.n))
        assert oracles == []

    def test_isolated_vertex_refused_first(self):
        # K1 is regular of degree 0: the isolated vertex is named before the
        # regular-graph criteria could refuse the graph for having no edges
        with pytest.raises(IsolatedVertex, match="isolated vertex 0$"):
            be_curvatures(build_graph(1, []), [0])
        with pytest.raises(IsolatedVertex, match="isolated vertex 2$"):
            be_curvatures(build_graph(3, [(0, 1)]), [0, 1, 2])


def _two_sphere_diagonal(g, x, s1, z) -> Fraction:
    """d_z = (1/(4 d_x)) sum_{y in S1(x), y ~ z} 1/d_y."""
    return Fraction(1, 4 * g.degree(x)) * sum(Fraction(1, g.degree(y)) for y in g.adjacency[z] if y in s1)


class TestTwoSphereBlock:
    """The S2 x S2 block of Gamma2 is a positive diagonal, which the closed
    form eliminates by hand."""

    @pytest.mark.parametrize("name", SAMPLE_GRAPHS)
    def test_diagonal_on_every_vertex(self, name):
        g = sample_graph(name)
        for x in range(g.n):
            basis, ds, _, g2x = ordered_gamma_forms(g, x)
            b22 = g2x[1 + ds :, 1 + ds :]
            off = ~np.eye(len(b22), dtype=bool)
            assert (b22[off] == 0.0).all()
            s1 = set(basis[1 : 1 + ds])
            for z, dz in zip(basis[1 + ds :], np.diagonal(b22)):
                assert math.isclose(dz, _two_sphere_diagonal(g, x, s1, z), rel_tol=1e-14)

    def test_closed_form_is_the_exact_gamma2(self, q4, petersen, j63):
        graphs = [q4[0], petersen[0], j63[0], build_graph(6, LOPSIDED_EDGES), build_graph(7, IRREGULAR_EDGES)]
        checked = 0
        for g in graphs:
            for x in range(g.n):
                basis, ds, _, _ = ordered_gamma_forms(g, x)
                s1 = set(basis[1 : 1 + ds])
                for z in basis[1 + ds :]:
                    e = {v: Fraction(int(v == z)) for v in range(g.n)}
                    dz = _two_sphere_diagonal(g, x, s1, z)
                    assert dz > 0 and gamma2_value(g, e, e, x) == dz
                    checked += 1
        assert checked >= 300


def _random_irregular_graph(n, rng):
    """A cycle on n vertices with random chords, so every degree is >= 2."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {tuple(rng.sample(range(n), 2)) for _ in range(n)}
    return build_graph(n, sorted({(min(e), max(e)) for e in edges}))


class TestCurvatureMatrix:
    """D Q(x), the closed form that ``be_curvatures`` reads its values off,
    against the exact Gamma2 of the definitions."""

    def test_gamma2_matrix_is_gamma2_value(self, petersen):
        for g in (petersen[0], build_graph(6, LOPSIDED_EDGES), build_graph(7, IRREGULAR_EDGES)):
            for x in range(g.n):
                basis = list(range(g.n))
                got = gamma2_matrix(g, x, basis)
                for u in basis:
                    e = {v: Fraction(int(v == u)) for v in range(g.n)}
                    for v in basis:
                        h = {w: Fraction(int(w == v)) for w in range(g.n)}
                        assert got[u][v] == gamma2_value(g, e, h, x)

    def test_closed_form_is_the_exact_schur_complement(self, q4, petersen, j63):
        irregular = _random_irregular_graph(9, random.Random(26))
        assert irregular.is_regular() is None
        graphs = [
            q4[0], petersen[0], j63[0],
            build_graph(6, LOPSIDED_EDGES), build_graph(7, IRREGULAR_EDGES), irregular,
        ]
        checked = 0
        for g in graphs:
            for x in range(g.n):
                s1, s2, adj = ball_block(g, x)
                deg = ds = g.degree(x)
                # f(x) = 0 fixed; the Gamma2 form on S1 + S2 and its S2 block
                g2 = gamma2_matrix(g, x, s1 + s2)
                n2 = len(s2)
                d = [g2[ds + i][ds + i] for i in range(n2)]
                assert all(g2[ds + i][ds + j] == 0 for i in range(n2) for j in range(n2) if i != j)
                assert all(dz > 0 for dz in d)
                schur = [
                    [g2[i][j] - sum(g2[i][ds + l] * g2[j][ds + l] / dz for l, dz in enumerate(d))
                     for j in range(ds)]
                    for i in range(ds)
                ]
                exact = curvature_matrix_exact(g, x)
                assert exact == [[4 * deg * deg * q for q in row] for row in schur]
                stacked = bakry_emery._curvature_matrices(adj[None])[0]
                assert np.abs(stacked - np.array(exact, dtype=np.float64)).max() <= 1e-12
                assert np.array_equal(stacked, curvature_matrix_scalar(g, x))
                checked += 1
        assert checked >= 65

    @pytest.mark.parametrize("n", range(2, 7))
    def test_hypercubes_are_exact(self, n):
        # on Q_n every entry of D Q is an integer or a sum of halves, so the
        # float matrix is the exact 4I and each curvature is float(2/n)
        g = hypercube(n)
        for x in range(g.n):
            stacked = bakry_emery._curvature_matrices(ball_block(g, x)[2][None])[0]
            assert [[Fraction(v) for v in row] for row in stacked.tolist()] == curvature_matrix_exact(g, x)
        assert {r.curvature for r in be_curvatures(g, range(g.n))} == {float(Fraction(2, n))}
