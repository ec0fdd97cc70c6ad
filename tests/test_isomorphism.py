"""Isomorphism search on the graphs this package actually has to tell apart."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from curvlab.families import (
    cocktail_party,
    demi_cube,
    gosset,
    johnson,
    kneser,
    lattice,
    schlafli,
    shrikhande,
)
from curvlab.fixtures import load_fixture
from curvlab.graphs import build_graph, induced_subgraph
from curvlab.isomorphism import (
    automorphism_orbits,
    find_isomorphism,
    verify_isomorphism,
)

from helpers import (
    SAMPLE_GRAPHS,
    isomorphic_bruteforce,
    orbit_representatives_bruteforce,
    record_calls,
    sample_graph,
)


def _relabelled(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _shuffled_copy(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return _relabelled(g, perm)


def test_relabelled_petersen():
    g = kneser(5, 2)
    h = _shuffled_copy(g, 1)
    mapping = find_isomorphism(g, h)
    assert mapping is not None and verify_isomorphism(g, h, mapping)


def test_octahedron_coincidences():
    assert find_isomorphism(johnson(4, 2), cocktail_party(3)) is not None
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert find_isomorphism(demi_cube(3), k4) is not None


def test_shrikhande_vs_lattice4():
    # same srg parameters (16,6,2,2), different graphs
    assert find_isomorphism(shrikhande(), lattice(4)) is None


def test_gosset_sphere_is_schlafli():
    g = gosset()
    sphere, _ = induced_subgraph(g, g.adjacency[0])
    assert find_isomorphism(sphere, schlafli()) is not None


def test_different_sizes():
    assert find_isomorphism(cocktail_party(3), cocktail_party(4)) is None


def test_same_degree_sequence_not_isomorphic():
    # C6 vs 2 triangles: both 2-regular on 6 vertices
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_k3 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert find_isomorphism(c6, two_k3) is None


@given(st.sampled_from(SAMPLE_GRAPHS), st.data())
@settings(max_examples=60, deadline=None)
def test_any_relabelling_is_found(name, data):
    g = sample_graph(name)
    h = _relabelled(g, data.draw(st.permutations(range(g.n))))
    mapping = find_isomorphism(g, h)
    assert mapping is not None and verify_isomorphism(g, h, mapping)


@given(st.integers(min_value=0, max_value=7), st.data())
@settings(max_examples=200, deadline=None)
def test_verdict_matches_bruteforce_on_small_graphs(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if data.draw(st.booleans())]
    g = build_graph(n, edges)
    others = [e for e in pairs if e not in edges]
    if edges and others and data.draw(st.booleans()):
        # one edge swap: drop an edge, add a non-edge
        dropped, added = data.draw(st.sampled_from(edges)), data.draw(st.sampled_from(others))
        edges = [e for e in edges if e != dropped] + [added]
    h = _relabelled(build_graph(n, edges), data.draw(st.permutations(range(n))))
    mapping = find_isomorphism(g, h)
    assert (mapping is not None) == isomorphic_bruteforce(g, h)
    assert mapping is None or verify_isomorphism(g, h, mapping)


@given(st.integers(min_value=0, max_value=7), st.data())
@settings(max_examples=100, deadline=None)
def test_orbits_match_bruteforce_on_small_graphs(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if data.draw(st.booleans()):
        # a disjoint union of relabelled copies of one graph: symmetric, and
        # disconnected when there are two copies
        half = n // 2
        copy = [(u, v) for u, v in pairs if v < half and data.draw(st.booleans())]
        edges = copy + [(u + half, v + half) for u, v in copy]
        g = _relabelled(build_graph(n, edges), data.draw(st.permutations(range(n))))
    else:
        g = build_graph(n, [e for e in pairs if data.draw(st.booleans())])
    representatives, automorphisms = automorphism_orbits(g)
    assert representatives == orbit_representatives_bruteforce(g)
    assert all(verify_isomorphism(g, g, sigma) for sigma in automorphisms)


def test_chang1_has_two_orbits():
    g = load_fixture("chang1")
    representatives, automorphisms = automorphism_orbits(g)
    assert len(set(representatives)) == 2
    assert all(verify_isomorphism(g, g, sigma) for sigma in automorphisms)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_no_search_repeats_a_failure_along_an_orbit(monkeypatch, seed):
    # replay the searches: a failed search from r to v is never followed by
    # one from r to a vertex that the automorphisms found so far map to v,
    # which would fail too; the orbits are still Chang1's two
    from curvlab import isomorphism

    g = load_fixture("chang1")
    if seed is not None:
        g = _shuffled_copy(g, seed)
    search = isomorphism._search_from
    log, depth = [], [0]

    def logged(u, colors, r, v):
        # the search recurses through _search_from; log the outer calls only
        depth[0] += 1
        found = search(u, colors, r, v)
        depth[0] -= 1
        if depth[0] == 0:
            log.append((r, v, found))
        return found

    monkeypatch.setattr(isomorphism, "_search_from", logged)
    representatives, automorphisms = automorphism_orbits(g)
    assert len(set(representatives)) == 2
    parent = list(range(g.n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    missed = {}
    for r, v, found in log:
        assert all(root(w) != root(v) for w in missed.get(r, ())), (r, v)
        if found is None:
            missed.setdefault(r, []).append(v)
        else:
            for x, y in enumerate(found):
                parent[max(root(x), root(y))] = min(root(x), root(y))
    assert [found for _, _, found in log if found is not None] == list(automorphisms)


def test_discrete_colouring_makes_no_search(monkeypatch):
    # an asymmetric graph whose distance profiles already tell every vertex apart
    g = build_graph(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)])
    searches = record_calls(monkeypatch, "isomorphism", "_search_from")
    assert automorphism_orbits(g) == (tuple(range(6)), ())
    assert searches == []
