"""Named graph families: hypercubes, cocktail party graphs, Johnson and
Kneser graphs, demi-cubes, the Gosset/Schlafli/Shrikhande graphs, and the
composite families (Hamming, Doob, lattice, triangular) built from them by
Cartesian products.

Each generator attaches human-readable vertex labels recording the natural
combinatorial coordinates (bit-strings, k-subsets, edge pairs); labels are
provenance only and never consulted by algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import prod
from typing import Any, Callable, Iterable

from . import graphs
from .errors import BadParam, VertexOutOfRange
from .graphs import Graph, build_graph, cartesian_product, induced_subgraph


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParam(f"complete graph needs n >= 1, got {n}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, edges, labels=tuple(str(v) for v in range(n)))


def hypercube(n: int) -> Graph:
    """Binary strings of length n, adjacent at Hamming distance one."""
    if n < 1:
        raise BadParam(f"hypercube needs n >= 1, got {n}")
    size = 1 << n
    edges = [(v, v ^ (1 << b)) for v in range(size) for b in range(n) if v < v ^ (1 << b)]
    labels = tuple(format(v, f"0{n}b") for v in range(size))
    return build_graph(size, edges, labels=labels)


def cocktail_party(n: int) -> Graph:
    """K_{2n} minus a perfect matching; vertex 2i is the partner of 2i+1."""
    if n < 1:
        raise BadParam(f"cocktail party graph needs n >= 1, got {n}")
    edges = [
        (u, v)
        for u in range(2 * n)
        for v in range(u + 1, 2 * n)
        if u // 2 != v // 2
    ]
    labels = tuple(f"{'uv'[i % 2]}{i // 2 + 1}" for i in range(2 * n))
    return build_graph(2 * n, edges, labels=labels)


def _subset_graph(n: int, k: int, neighbours: Callable[[tuple, tuple], Iterable[tuple]]) -> Graph:
    """The k-subsets of {1..n} in lexicographic order, each joined to the
    sorted k-subsets that ``neighbours(subset, complement)`` yields."""
    verts = list(combinations(range(1, n + 1), k))
    index = {s: i for i, s in enumerate(verts)}
    edges = []
    for i, s in enumerate(verts):
        for t in neighbours(s, tuple(v for v in range(1, n + 1) if v not in s)):
            j = index[t]
            if i < j:
                edges.append((i, j))
    labels = tuple("{" + ",".join(map(str, s)) + "}" for s in verts)
    return build_graph(len(verts), edges, labels=labels)


def johnson(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent when they share k-1 elements: a
    neighbour swaps one element for one of the complement."""
    if not (1 <= k <= n - 1):
        raise BadParam(f"johnson needs 1 <= k <= n-1, got ({n},{k})")

    def swaps(s: tuple, rest: tuple) -> Iterable[tuple]:
        return (tuple(sorted(s[:p] + s[p + 1 :] + (b,))) for p in range(k) for b in rest)

    return _subset_graph(n, k, swaps)


def kneser(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent when disjoint: the neighbours are the
    k-subsets of the complement."""
    if not (k >= 1 and n >= 2 * k):
        raise BadParam(f"kneser needs n >= 2k >= 2, got ({n},{k})")
    return _subset_graph(n, k, lambda s, rest: combinations(rest, k))


def demi_cube(n: int) -> Graph:
    """Even-weight binary strings of length n, adjacent at Hamming distance two.

    This is one connected component of the halved n-cube; the even-weight
    half is fixed for determinism.
    """
    if n < 2:
        raise BadParam(f"demi-cube needs n >= 2, got {n}")
    verts = [v for v in range(1 << n) if bin(v).count("1") % 2 == 0]
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for i, u in enumerate(verts):
        for a in range(n):
            for b in range(a + 1, n):
                w = u ^ (1 << a) ^ (1 << b)
                if u < w:
                    edges.append((i, index[w]))
    labels = tuple(format(v, f"0{n}b") for v in verts)
    return build_graph(len(verts), edges, labels=labels)


def gosset() -> Graph:
    """Two copies of the edge set of K_8; same-copy vertices meet in one
    point, cross-copy vertices are disjoint pairs.  56 vertices, 27-regular.
    """
    pairs = list(combinations(range(1, 9), 2))
    verts = [(p, 0) for p in pairs] + [(p, 1) for p in pairs]
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for i, (p, cp) in enumerate(verts):
        sp = set(p)
        for j in range(i + 1, len(verts)):
            q, cq = verts[j]
            inter = len(sp & set(q))
            if (cp == cq and inter == 1) or (cp != cq and inter == 0):
                edges.append((i, j))
    labels = tuple(
        "{" + f"{p[0]},{p[1]}" + "}" + ("'" if cp else "") for p, cp in verts
    )
    return build_graph(len(verts), edges, labels=labels)


def schlafli() -> Graph:
    """The induced 1-sphere of any Gosset vertex: srg(27, 16, 10, 8)."""
    g = gosset()
    sub, verts = induced_subgraph(g, g.adjacency[0])
    labels = tuple(g.labels[v] for v in verts) if g.labels else None
    return sub.relabel(labels)


def shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = set()
    for a in range(4):
        for b in range(4):
            u = 4 * a + b
            for da, db in conn:
                v = 4 * ((a + da) % 4) + (b + db) % 4
                if u < v:
                    edges.add((u, v))
                else:
                    edges.add((v, u))
    labels = tuple(f"({a},{b})" for a in range(4) for b in range(4))
    return build_graph(16, sorted(edges), labels=labels)


def hamming(n: int, d: int) -> Graph:
    """The Hamming graph H(d, n) = (K_n)^d.

    n = 1 is refused: (K_1)^d is one vertex for every d, yet it would take
    d - 1 products to build, so no vertex count could bound the work.
    """
    if n < 2 or d < 1:
        raise BadParam(f"hamming needs n >= 2 and d >= 1, got ({n},{d})")
    g = complete(n)
    out = g
    for _ in range(d - 1):
        out = cartesian_product(out, g)
    return out


def doob(n: int, m: int) -> Graph:
    """Doob graph: Cartesian product of n copies of K_4 and m Shrikhande graphs."""
    if n < 0 or m < 1:
        raise BadParam(f"doob needs n >= 0 and m >= 1, got ({n},{m})")
    factors = [complete(4)] * n + [shrikhande()] * m
    return reduce(cartesian_product, factors)


def lattice(n: int) -> Graph:
    """The lattice graph L2(n) = K_n x K_n."""
    if n < 2:
        raise BadParam(f"lattice needs n >= 2, got {n}")
    return cartesian_product(complete(n), complete(n))


def triangular(n: int) -> Graph:
    """The triangular graph T(n) = J(n, 2)."""
    if n < 3:
        raise BadParam(f"triangular needs n >= 3, got {n}")
    return johnson(n, 2)


def _power(base: int, exp: int) -> int:
    """base ** exp, or a partial power above MAX_VERTICES once one passes it."""
    out = 1
    while base >= 2 and exp > 0 and out <= graphs.MAX_VERTICES:
        out, exp = out * base, exp - 1
    return out


def _binomial(n: int, k: int) -> int:
    """C(n, k), or a partial C(n, i) above MAX_VERTICES once one passes it.

    C(n, i) grows with i up to n/2, at least doubling, so this stops within
    a few steps whatever the parameters.
    """
    out = 1
    for i in range(min(k, n - k)):
        out = out * (n - i) // (i + 1)
        if out > graphs.MAX_VERTICES:
            break
    return out


# name -> (generator, parameter count, vertex count and degree from the
# parameters).  The vertex counts are exact up to MAX_VERTICES; any count
# above it stands for "too many".  Degrees are read only once the vertex
# count has passed, when they are exact.  Invalid parameters are left to
# the generator to refuse.
FAMILIES = {
    "hypercube": (hypercube, 1, lambda n: _power(2, n), lambda n: n),
    "cocktailparty": (cocktail_party, 1, lambda n: 2 * n, lambda n: 2 * n - 2),
    "complete": (complete, 1, lambda n: n, lambda n: n - 1),
    "johnson": (johnson, 2, _binomial, lambda n, k: k * (n - k)),
    "kneser": (kneser, 2, _binomial, lambda n, k: _binomial(n - k, k)),
    "demicube": (demi_cube, 1, lambda n: _power(2, n - 1), lambda n: _binomial(n, 2)),
    "gosset": (gosset, 0, lambda: 56, lambda: 27),
    "schlafli": (schlafli, 0, lambda: 27, lambda: 16),
    "shrikhande": (shrikhande, 0, lambda: 16, lambda: 6),
    "hamming": (hamming, 2, _power, lambda n, d: d * (n - 1)),
    "doob": (doob, 2, lambda n, m: _power(4, n) * _power(16, m), lambda n, m: 3 * n + 6 * m),
    "lattice": (lattice, 1, lambda n: n * n, lambda n: 2 * n - 2),
    "triangular": (triangular, 1, lambda n: _binomial(n, 2), lambda n: 2 * n - 4),
}


def family_name(text: str) -> str:
    """The canonical family name of ``text``: ``Cocktail-Party`` is ``cocktailparty``."""
    return text.strip().lower().replace("-", "").replace("_", "")


@dataclass(frozen=True)
class FamilySpec:
    """A graph family name plus parameters; ``product`` nests factor specs."""

    family: str
    params: tuple[int, ...] = ()
    factors: tuple["FamilySpec", ...] = ()

    def __post_init__(self) -> None:
        if self.family == "product":
            if len(self.factors) < 2:
                raise BadParam("product needs at least 2 factors")
            if self.params:
                raise BadParam("product takes no params")
        else:
            if self.family not in FAMILIES:
                raise BadParam(f"unknown family {self.family!r}")
            if self.factors:
                raise BadParam(f"{self.family} takes no factors")
            if len(self.params) != FAMILIES[self.family][1]:
                raise BadParam(
                    f"{self.family} takes {FAMILIES[self.family][1]} params, "
                    f"got {len(self.params)}"
                )

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"family": self.family, "params": list(self.params)}
        if self.factors:
            doc["factors"] = [f.to_json() for f in self.factors]
        return doc

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        """Parse the CLI form ``name`` or ``name:p1:p2``."""
        parts = text.split(":")
        name = family_name(parts[0])
        try:
            params = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise BadParam(f"non-integer parameter in {text!r}") from exc
        return FamilySpec(family=name, params=params)

    def describe(self) -> str:
        if self.family == "product":
            return " x ".join(f.describe() for f in self.factors)
        if self.params:
            return f"{self.family}({','.join(map(str, self.params))})"
        return self.family


def _vertex_count(spec: FamilySpec) -> int:
    if spec.family == "product":
        return prod(_vertex_count(f) for f in spec.factors)
    return FAMILIES[spec.family][2](*spec.params)


def _degree(spec: FamilySpec) -> int:
    """The common degree; a product adds the degrees of its factors."""
    if spec.family == "product":
        return sum(_degree(f) for f in spec.factors)
    return FAMILIES[spec.family][3](*spec.params)


def from_spec(spec: FamilySpec) -> Graph:
    """Build the graph of ``spec``; specs whose vertex count, then edge
    count (vertices x degree / 2), worked out from the parameters alone,
    exceeds ``graphs.MAX_VERTICES``, then ``graphs.MAX_EDGES``, are refused
    before any generator runs."""
    vertices = _vertex_count(spec)
    if vertices > graphs.MAX_VERTICES:
        raise VertexOutOfRange(
            f"{spec.describe()} has more than MAX_VERTICES = {graphs.MAX_VERTICES} vertices"
        )
    if vertices * _degree(spec) > 2 * graphs.MAX_EDGES:
        raise BadParam(
            f"{spec.describe()} has more than MAX_EDGES = {graphs.MAX_EDGES} edges"
        )
    if spec.family == "product":
        out = from_spec(spec.factors[0])
        for factor in spec.factors[1:]:
            out = cartesian_product(out, from_spec(factor))
        return out
    return FAMILIES[spec.family][0](*spec.params)
