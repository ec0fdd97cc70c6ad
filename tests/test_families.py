"""Family generators: counts, degrees, diameters, local structure, and the
cross-family coincidences."""

import json

import pytest

from curvlab.errors import BadParam
from curvlab.families import (
    FamilySpec,
    cocktail_party,
    complete,
    demi_cube,
    doob,
    from_spec,
    gosset,
    hamming,
    hypercube,
    johnson,
    kneser,
    lattice,
    schlafli,
    shrikhande,
    triangular,
)
from curvlab.graphs import (
    cartesian_product,
    distances,
    is_cocktail_party,
    is_strongly_regular,
    mu_graph,
    poles_and_antipoles,
)
from curvlab.isomorphism import find_isomorphism

from helpers import subset_graph_by_pairs


class TestHypercube:
    def test_k2(self):
        assert hypercube(1).adjacency == ((1,), (0,))

    def test_counts(self):
        g = hypercube(3)
        assert g.n == 8 and g.is_regular() == 3

    def test_triangle_free(self):
        g = hypercube(4)
        from curvlab.graphs import triangle_count_vertex

        assert all(triangle_count_vertex(g, v) == 0 for v in range(g.n))

    def test_bad_param(self):
        with pytest.raises(BadParam):
            hypercube(0)

    def test_product_recursion(self):
        k2 = complete(2)
        g = k2
        for _ in range(3):
            g = cartesian_product(g, k2)
        assert find_isomorphism(g, hypercube(4)) is not None


class TestCocktailParty:
    @pytest.mark.parametrize("n,deg", [(2, 2), (3, 4), (5, 8)])
    def test_regular(self, n, deg):
        g = cocktail_party(n)
        assert g.n == 2 * n and g.is_regular() == deg

    def test_diameter(self):
        assert distances(cocktail_party(5)).diameter == 2


class TestJohnson:
    def test_is_complete_for_k1(self):
        assert find_isomorphism(johnson(5, 1), complete(5)) is not None

    def test_j63(self):
        g = johnson(6, 3)
        assert g.n == 20 and g.is_regular() == 9
        assert distances(g).diameter == 3

    def test_j52_is_triangular5(self):
        p = is_strongly_regular(johnson(5, 2))
        assert (p.nu, p.k, p.lam, p.mu) == (10, 6, 3, 4)

    def test_bad_param(self):
        with pytest.raises(BadParam):
            johnson(4, 4)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 10) for k in range(1, n)])
    def test_matches_pairwise_definition(self, n, k):
        # same vertex order, labels and adjacency as comparing every pair
        assert johnson(n, k) == subset_graph_by_pairs(n, k, lambda s, t: len(s & t) == k - 1)


class TestKneser:
    def test_petersen(self):
        g = kneser(5, 2)
        assert g.n == 10 and g.is_regular() == 3

    def test_72(self):
        g = kneser(7, 2)
        assert g.n == 21 and g.is_regular() == 10
        assert distances(g).diameter == 2

    def test_disconnected_matching(self):
        g = kneser(4, 2)
        assert g.n == 6 and g.is_regular() == 1
        assert not distances(g).is_connected

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 10) for k in range(1, n // 2 + 1)])
    def test_matches_pairwise_definition(self, n, k):
        assert kneser(n, k) == subset_graph_by_pairs(n, k, lambda s, t: not s & t)


class TestDemiCube:
    def test_small_is_k4(self):
        assert find_isomorphism(demi_cube(3), complete(4)) is not None

    def test_counts(self):
        g = demi_cube(5)
        assert g.n == 16 and g.is_regular() == 10
        p = is_strongly_regular(g)
        assert (p.nu, p.k, p.lam, p.mu) == (16, 10, 6, 6)

    def test_demi6(self):
        g = demi_cube(6)
        assert g.n == 32 and g.is_regular() == 15
        assert distances(g).diameter == 3

    def test_johnson_coincidence(self):
        assert find_isomorphism(johnson(4, 2), cocktail_party(3)) is not None


class TestGossetSchlafli:
    def test_gosset_counts(self, gosset_graph):
        g, d = gosset_graph
        assert g.n == 56 and g.is_regular() == 27 and d.diameter == 3

    def test_schlafli_params(self):
        p = is_strongly_regular(schlafli())
        assert (p.nu, p.k, p.lam, p.mu) == (27, 16, 10, 8)


class TestShrikhande:
    def test_params(self):
        p = is_strongly_regular(shrikhande())
        assert (p.nu, p.k, p.lam, p.mu) == (16, 6, 2, 2)

    def test_not_lattice(self):
        assert find_isomorphism(shrikhande(), lattice(4)) is None


class TestComposites:
    def test_hamming(self):
        g = hamming(4, 2)
        assert g.n == 16 and g.is_regular() == 6

    def test_doob(self):
        g = doob(1, 1)
        assert g.n == 64 and g.is_regular() == 9

    def test_lattice(self):
        p = is_strongly_regular(lattice(3))
        assert (p.nu, p.k, p.lam, p.mu) == (9, 4, 1, 2)

    def test_triangular(self):
        assert find_isomorphism(triangular(5), johnson(5, 2)) is not None


class TestSelfCenteredness:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: hypercube(4),
            lambda: cocktail_party(4),
            lambda: johnson(6, 3),
            lambda: demi_cube(6),
            gosset,
        ],
    )
    def test_families_self_centered(self, builder):
        g = builder()
        _, self_centered = poles_and_antipoles(g)
        assert self_centered


class TestMuGraphFamilies:
    @pytest.mark.parametrize(
        "builder,m",
        [
            (lambda: hypercube(4), 1),
            (lambda: johnson(6, 3), 2),
            (lambda: demi_cube(6), 3),
            (gosset, 5),
            (lambda: cocktail_party(4), 3),
        ],
    )
    def test_mu_graph_sizes(self, builder, m):
        g = builder()
        d = distances(g)
        z = d.sphere(0, 2)[0]
        assert is_cocktail_party(mu_graph(g, 0, z)) == m


class TestFamilySpec:
    def test_json_roundtrip(self):
        spec = FamilySpec(
            "product",
            factors=(FamilySpec("johnson", (6, 3)), FamilySpec("cocktailparty", (4,))),
        )
        assert json.loads(json.dumps(spec.to_json())) == {
            "family": "product",
            "params": [],
            "factors": [
                {"family": "johnson", "params": [6, 3]},
                {"family": "cocktailparty", "params": [4]},
            ],
        }

    def test_parse(self):
        assert FamilySpec.parse("johnson:6:3") == FamilySpec("johnson", (6, 3))
        assert FamilySpec.parse("demi-cube:6") == FamilySpec("demicube", (6,))

    def test_dispatch_product(self):
        spec = FamilySpec(
            "product",
            factors=(FamilySpec("johnson", (6, 3)), FamilySpec("cocktailparty", (4,))),
        )
        g = from_spec(spec)
        assert g.n == 160 and g.is_regular() == 9 + 6

    def test_unknown_family(self):
        with pytest.raises(BadParam):
            FamilySpec("frobnicator", (3,))

    def test_product_needs_two(self):
        with pytest.raises(BadParam):
            FamilySpec("product", factors=(FamilySpec("gosset"),))
