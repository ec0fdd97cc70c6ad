import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from curvlab.families import (
    cocktail_party,
    demi_cube,
    gosset,
    hypercube,
    johnson,
    kneser,
)
from curvlab.graphs import cartesian_product, distances


@pytest.fixture(scope="session")
def q3():
    g = hypercube(3)
    return g, distances(g)


@pytest.fixture(scope="session")
def q4():
    g = hypercube(4)
    return g, distances(g)


@pytest.fixture(scope="session")
def cp3():
    g = cocktail_party(3)
    return g, distances(g)


@pytest.fixture(scope="session")
def cp4():
    g = cocktail_party(4)
    return g, distances(g)


@pytest.fixture(scope="session")
def j63():
    g = johnson(6, 3)
    return g, distances(g)


@pytest.fixture(scope="session")
def demi6():
    g = demi_cube(6)
    return g, distances(g)


@pytest.fixture(scope="session")
def gosset_graph():
    g = gosset()
    return g, distances(g)


@pytest.fixture(scope="session")
def petersen():
    g = kneser(5, 2)
    return g, distances(g)


@pytest.fixture(scope="session")
def cp3_squared():
    g = cartesian_product(cocktail_party(3), cocktail_party(3))
    return g, distances(g)
