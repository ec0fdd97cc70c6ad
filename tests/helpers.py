"""Independent oracles and generators used across the test suite.

These deliberately avoid the code paths they check: Wasserstein by
exhaustive bijection enumeration or by min-cost flow on the full,
uncancelled supports, perfect matchings by permutation enumeration,
intervals and antipodality by definition scan, Bakry-Emery forms by dense
assembly over the whole vertex set, intersection arrays by a scan of every
ordered vertex pair, isomorphism and automorphism orbits by permutation
enumeration, strong sphericity by the full row-major interval scan,
cocktail party graphs by their complement, mu-graphs by building each one,
random regular graphs by stub pairing.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from curvlab import _kernels
from curvlab.families import FamilySpec, from_spec
from curvlab.fixtures import FIXTURE_NAMES, load_fixture
from curvlab.graphs import DistanceOracle, Graph, build_graph, degree_triple, distances, mu_graph
from curvlab.sharpness import MuGraphVerdict, SphericalVerdict
from curvlab.transport import Measure, _transportation


def wasserstein_bruteforce(d: DistanceOracle, m1: Measure, m2: Measure) -> Fraction:
    """Minimum cost over all bijections of equal-mass atomic supports.

    For equal atomic masses the transportation polytope's vertices are
    exactly the bijections, so this enumeration is exhaustive.
    """
    s1, s2 = m1.support, m2.support
    masses = {m for _, m in m1.mass} | {m for _, m in m2.mass}
    assert len(masses) == 1 and len(s1) == len(s2), "oracle needs equal atomic masses"
    unit = next(iter(masses))
    best = min(
        sum(d.d(u, v) for u, v in zip(s1, perm)) for perm in permutations(s2)
    )
    return unit * best


def wasserstein_full_flow(d: DistanceOracle, m1: Measure, m2: Measure) -> Fraction:
    """W1 by integer min-cost flow between the full supports.

    Nothing cancels: mass shared by the two measures is a supply and a
    demand like any other, so this checks routes that solve only the
    remainder of m1 - m2.
    """
    denom = math.lcm(*(m.denominator for _, m in m1.mass + m2.mass))
    cost = [[d.d(u, v) for v in m2.support] for u in m1.support]
    supply = [int(m * denom) for _, m in m1.mass]
    demand = [int(m * denom) for _, m in m2.mass]
    total, _ = _transportation(cost, supply, demand)
    return Fraction(total, denom)


def edge_has_perfect_matching(g: Graph, x: int, y: int) -> bool:
    """Whether N(x) \\ N[y] and N(y) \\ N[x] admit a perfect adjacency
    matching, by enumerating every bijection between them."""
    nx, ny = set(g.adjacency[x]), set(g.adjacency[y])
    left = sorted(nx - ny - {y})
    right = sorted(ny - nx - {x})
    if len(left) != len(right):
        return False
    return any(
        all(v in g.adjacency[u] for u, v in zip(left, perm))
        for perm in permutations(right)
    )


def dense_gamma_forms(g: Graph, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gamma and Gamma2 matrices at x over all n vertices, from the
    whole n x n Laplacian and one n x n Gamma matrix per neighbour."""
    n = g.n
    lap = np.zeros((n, n), dtype=np.float64)
    for v in range(n):
        lap[v, v] = -1.0
        for z in g.adjacency[v]:
            lap[v, z] = 1.0 / g.degree(v)

    def gamma_at(w: int) -> np.ndarray:
        h = np.zeros((n, n), dtype=np.float64)
        for z in g.adjacency[w]:
            h[z, z] += 1.0
            h[z, w] -= 1.0
            h[w, z] -= 1.0
            h[w, w] += 1.0
        return h / (2.0 * g.degree(w))

    gx = gamma_at(x)
    acc = -1.0 * gx
    for y in g.adjacency[x]:
        acc = acc + gamma_at(y) / g.degree(x)
    b = 0.5 * (acc - gx @ lap - lap.T @ gx)
    return gx, 0.5 * (b + b.T)


def subset_graph_by_pairs(n: int, k: int, adjacent) -> Graph:
    """The k-subsets of {1..n} in lexicographic order, joined when
    ``adjacent(s, t)`` holds for their sets, by comparing every pair: the
    definition that ``johnson`` and ``kneser`` generate directly."""
    verts = list(combinations(range(1, n + 1), k))
    edges = [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if adjacent(set(verts[i]), set(verts[j]))
    ]
    labels = tuple("{" + ",".join(map(str, s)) + "}" for s in verts)
    return build_graph(len(verts), edges, labels=labels)


def interval_bruteforce(d: DistanceOracle, x: int, y: int) -> frozenset[int]:
    n = d.dist.shape[0]
    dxy = d.d(x, y)
    return frozenset(
        z for z in range(n) if d.d(x, z) >= 0 and d.d(x, z) + d.d(z, y) == dxy
    )


def antipodal_bruteforce(dist) -> bool:
    """Every z has z' with d(z,w) + d(w,z') = d(z,z') for all w, by triple loop."""
    m = len(dist)
    for z in range(m):
        if not any(
            all(dist[z][w] + dist[w][zb] == dist[z][zb] for w in range(m))
            for zb in range(m)
        ):
            return False
    return True


def ambient_spherical_bruteforce(d: DistanceOracle) -> bool:
    """Strong sphericity with each interval measured by the restricted
    ambient metric instead of its induced one, all by definition scan."""
    dist = d.dist.tolist()
    if not antipodal_bruteforce(dist):
        return False
    n = len(dist)
    for x in range(n):
        for y in range(x + 1, n):
            members = sorted(interval_bruteforce(d, x, y))
            sub = [[dist[a][b] for b in members] for a in members]
            if not antipodal_bruteforce(sub):
                return False
    return True


def intersection_array_by_pairs(
    g: Graph, d: DistanceOracle
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """((b_0..b_{L-1}), (c_1..c_L)) from the degree triple of every ordered
    vertex pair, or None when g is not distance-regular."""
    if not d.is_connected or g.is_regular() is None:
        return None
    L = d.diameter
    b: list[set[int]] = [set() for _ in range(L)]
    c: list[set[int]] = [set() for _ in range(L + 1)]
    for x in range(g.n):
        for y in range(g.n):
            j = d.d(x, y)
            t = degree_triple(g, x, y)
            if j < L:
                b[j].add(t.d_plus)
            if j > 0:
                c[j].add(t.d_minus)
    if any(len(values) != 1 for values in b + c[1:]):
        return None
    return tuple(v for (v,) in b), tuple(v for (v,) in c[1:])


def spherical_row_major(g: Graph) -> SphericalVerdict:
    """Strong sphericity by the whole-graph check and then every interval
    I(x, y), x < y, in row-major order, with no automorphism used."""
    d = distances(g)
    if not _kernels.is_antipodal_matrix(d.dist):
        return SphericalVerdict(False, None)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            members = _kernels.interval_members(d.dist[x], d.dist[y], d.d(x, y))
            dm = _kernels.induced_distances(g.dense_adjacency, members)
            if (dm < 0).any() or not _kernels.is_antipodal_matrix(dm):
                return SphericalVerdict(False, (x, y))
    return SphericalVerdict(True, None)


def orbit_representatives_bruteforce(g: Graph) -> tuple[int, ...]:
    """The smallest vertex of each vertex's automorphism orbit, by
    enumerating every permutation."""
    edges = {frozenset(e) for e in g.edges()}
    automorphisms = [
        p for p in permutations(range(g.n))
        if all(frozenset((p[u], p[v])) in edges for u, v in g.edges())
    ]
    return tuple(min(p[x] for p in automorphisms) for x in range(g.n))


def isomorphic_bruteforce(g1: Graph, g2: Graph) -> bool:
    """Whether some permutation of g1's vertices carries its edges onto g2's."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    edges2 = {frozenset(e) for e in g2.edges()}
    return any(
        all(frozenset((p[u], p[v])) in edges2 for u, v in g1.edges())
        for p in permutations(range(g1.n))
    )


def cocktail_party_bruteforce(g: Graph) -> int | None:
    """m such that g is CP(m), read as: g has vertices and its complement
    is a perfect matching, every vertex in exactly one non-edge."""
    non_edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    covered = sorted(v for e in non_edges for v in e)
    if g.n == 0 or covered != list(range(g.n)):
        return None
    return g.n // 2


def mu_graphs_by_subgraphs(g: Graph, d: DistanceOracle) -> MuGraphVerdict:
    """The mu-graph scan that builds every distance-2 pair's mu-graph as a
    graph, in row-major pair order, and recognises it by its complement."""
    counts: Counter[int] = Counter()
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if d.d(x, y) != 2:
                continue
            m = cocktail_party_bruteforce(mu_graph(g, x, y))
            if m is None:
                return MuGraphVerdict(False, tuple(sorted(counts.items())), (x, y))
            counts[m] += 1
    return MuGraphVerdict(True, tuple(sorted(counts.items())), None)


# one small member of every family, a product and every fixture
SAMPLE_GRAPHS = (
    "hypercube:4", "cocktailparty:4", "complete:5", "johnson:6:3", "kneser:5:2",
    "kneser:7:2", "demicube:6", "gosset", "schlafli", "shrikhande", "hamming:3:3",
    "doob:1:1", "lattice:4", "triangular:6", "hypercube:2 x cocktailparty:3",
    *FIXTURE_NAMES,
)


def sample_graph(name: str) -> Graph:
    """The graph of a ``SAMPLE_GRAPHS`` entry."""
    if name in FIXTURE_NAMES:
        return load_fixture(name)
    specs = [FamilySpec.parse(text) for text in name.split(" x ")]
    return from_spec(specs[0] if len(specs) == 1 else FamilySpec("product", factors=tuple(specs)))


def assignment_bruteforce(cost) -> int:
    n = len(cost)
    return min(
        sum(cost[i][perm[i]] for i in range(n)) for perm in permutations(range(n))
    )


def random_regular_graph(n: int, deg: int, rng: random.Random) -> Graph:
    """Simple connected deg-regular graph: circulant start + edge swaps.

    Double-edge swaps preserve the degree sequence and simplicity; the walk
    re-randomizes until a connected sample comes out.
    """
    assert (n * deg) % 2 == 0 and deg < n and deg >= 2
    from curvlab.graphs import distances

    half = deg // 2
    edges = set()
    for v in range(n):
        for step in range(1, half + 1):
            edges.add(tuple(sorted((v, (v + step) % n))))
        if deg % 2 == 1:
            edges.add(tuple(sorted((v, (v + n // 2) % n))))

    def swap_once() -> None:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            return
        new1, new2 = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if new1 in edges or new2 in edges:
            return
        edges.discard((a, b) if a < b else (b, a))
        edges.discard((c, d) if c < d else (d, c))
        edges.add(new1)
        edges.add(new2)

    for _ in range(20 * len(edges)):
        swap_once()
    while True:
        g = build_graph(n, sorted(edges))
        if distances(g).is_connected:
            return g
        for _ in range(2 * len(edges)):
            swap_once()


def record_calls(monkeypatch, module: str, name: str) -> list[tuple]:
    """Wrap ``curvlab.<module>.<name>`` in every curvlab module that bound
    it and return the list that receives the positional arguments of each
    call."""
    import sys

    original = getattr(sys.modules[f"curvlab.{module}"], name)
    calls: list[tuple] = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("curvlab"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)
    return calls
