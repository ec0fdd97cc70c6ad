"""Spectra, the distance eigenfunction identity, Lichnerowicz sharpness."""

from fractions import Fraction

import pytest

from curvlab import spectral
from curvlab.analysis import GraphAnalysis
from curvlab.errors import Disconnected, IsolatedVertex
from curvlab.families import (
    demi_cube,
    hypercube,
    johnson,
    shrikhande,
)
from curvlab.fixtures import load_fixture
from curvlab.graphs import build_graph
from curvlab.spectral import (
    is_lichnerowicz_sharp,
    spectral_summary,
    verify_distance_eigenfunction,
)

from helpers import (
    SAMPLE_GRAPHS,
    distance_eigenfunction_by_fractions,
    normalized_laplacian_apply,
    sample_graph,
)

# the triangular prism with a seventh vertex on the triangle 0 1 6: degrees 2, 3, 4
PRISM_PLUS = build_graph(
    7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5), (0, 6), (1, 6)]
)
# the 8 cube vertices (degree 3), each joined to the centres of its 3 faces (degree 4)
RHOMBIC_DODECAHEDRON = build_graph(
    14, [(v, 8 + 2 * axis + (v >> axis & 1)) for v in range(8) for axis in range(3)]
)


class TestLaplacianApply:
    def test_constant_in_kernel(self, q3):
        g, _ = q3
        image = normalized_laplacian_apply(g, {v: Fraction(7) for v in range(g.n)})
        assert all(value == 0 for value in image.values())

    def test_q3_distance_eigenfunction(self, q3):
        g, d = q3
        f = {v: Fraction(d.d(0, v)) - Fraction(3, 2) for v in range(g.n)}
        image = normalized_laplacian_apply(g, f)
        assert all(image[v] == -Fraction(2, 3) * f[v] for v in range(g.n))

    def test_k3_indicator(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        image = normalized_laplacian_apply(g, {0: Fraction(1), 1: Fraction(0), 2: Fraction(0)})
        assert image[0] == -1

    def test_isolated_vertex_rejected(self):
        g = build_graph(2, [])
        with pytest.raises(IsolatedVertex):
            normalized_laplacian_apply(g, {0: Fraction(0), 1: Fraction(0)})


class TestSpectralSummary:
    def test_petersen(self, petersen):
        g, _ = petersen
        s = spectral_summary(g)
        assert abs(s.lambda1 - 2 / 3) < 1e-9

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_demi_cube(self, n):
        g = demi_cube(n)
        s = spectral_summary(g)
        assert abs(s.lambda1 - 4 / n) < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_johnson_multiplicity(self, n):
        g = johnson(2 * n, n)
        s = spectral_summary(g)
        assert s.lambda1_multiplicity == 2 * n - 1

    def test_regular_theta_lambda_relation(self, j63, q4, cp4, demi6, gosset_graph, petersen):
        for g, _ in (j63, q4, cp4, demi6, gosset_graph, petersen):
            s = spectral_summary(g)
            assert abs(s.lambda1 - (1 - s.theta1 / g.is_regular())) < 1e-9

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            spectral_summary(g)

    def test_refuses_k0_and_k1(self):
        # so every summary has n >= 2 and a second adjacency eigenvalue theta1
        with pytest.raises(Disconnected):
            spectral_summary(build_graph(0, []))
        with pytest.raises(IsolatedVertex):
            spectral_summary(build_graph(1, []))
        assert spectral_summary(build_graph(2, [(0, 1)])).theta1 == -1.0


class TestDistanceEigenfunction:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hypercubes(self, n):
        g = hypercube(n)
        ok, witness = verify_distance_eigenfunction(g, 0)
        assert ok and witness is None

    def test_gosset(self, gosset_graph):
        g, _ = gosset_graph
        assert verify_distance_eigenfunction(g, 0) == (True, None)

    def test_petersen_fails(self, petersen):
        g, _ = petersen
        ok, witness = verify_distance_eigenfunction(g, 0)
        assert not ok and witness is not None

    def test_degree_counts_match_the_fraction_laplacian(self, monkeypatch, petersen):
        # the integer identity L (d_plus - d_minus) = deg (L - 2 d) gives the
        # verdict and the witness of Delta f + (2/L) f = 0 in Fractions
        graphs = [sample_graph(name) for name in SAMPLE_GRAPHS]
        graphs += [petersen[0], PRISM_PLUS, RHOMBIC_DODECAHEDRON]
        seen = set()
        for g in graphs:
            with monkeypatch.context() as m:
                m.setattr(spectral, "Fraction", None)  # builds no Fraction
                got = [verify_distance_eigenfunction(g, x) for x in range(g.n)]
            assert got == [distance_eigenfunction_by_fractions(g, x) for x in range(g.n)]
            seen.update(ok for ok, _ in got)
        assert seen == {True, False}


class TestLichnerowicz:
    def test_j52_sharp(self):
        g = johnson(5, 2)
        verdict = is_lichnerowicz_sharp(GraphAnalysis(g))
        assert verdict.is_sharp
        assert verdict.inf_edge_kappa == Fraction(5, 6)

    def test_shrikhande_not_sharp(self):
        g = shrikhande()
        verdict = is_lichnerowicz_sharp(GraphAnalysis(g))
        assert not verdict.is_sharp
        assert verdict.inf_edge_kappa == Fraction(1, 3)
        assert abs(verdict.lambda1 - 2 / 3) < 1e-9

    def test_hall_not_sharp(self):
        g = load_fixture("hall")
        verdict = is_lichnerowicz_sharp(GraphAnalysis(g))
        assert not verdict.is_sharp
        assert verdict.inf_edge_kappa == Fraction(-1, 10)
        assert abs(verdict.lambda1 - 1 / 2) < 1e-9

    def test_bm_sharp_graphs_are_lichnerowicz_sharp(self, q4, cp4, j63, demi6):
        for g, _ in (q4, cp4, j63, demi6):
            verdict = is_lichnerowicz_sharp(GraphAnalysis(g))
            assert verdict.is_sharp and verdict.exact_certificate

    def test_petersen_mu1_not_sharp(self, petersen):
        # distance-regular with mu = 1 cannot be Lichnerowicz sharp
        g, _ = petersen
        verdict = is_lichnerowicz_sharp(GraphAnalysis(g))
        assert not verdict.is_sharp
        assert verdict.inf_edge_kappa == 0

    def test_lichnerowicz_inequality_on_fixtures(self, petersen, cp3, q3):
        for g, _ in (petersen, cp3, q3):
            verdict = is_lichnerowicz_sharp(GraphAnalysis(g))
            assert float(verdict.inf_edge_kappa) <= verdict.lambda1 + 1e-9
