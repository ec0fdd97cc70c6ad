"""Core graph representation and metric structure.

Vertices are dense integers ``0..n-1``; optional string labels carry
generator provenance but never enter any algorithm.  Graphs are immutable
and hashable, and each one owns its derived views: neighbour sets, degrees,
the regular degree, the dense float64 adjacency and the distance oracle, a
dense int32 matrix with ``-1`` marking unreachable pairs.  Each view is
computed on first use, kept as long as the graph and read-only.

The 2-ball blocks A[S1(x), S1(x) + S2(x)] that the mu-graph, 1-sphere
and Bakry-Emery scans stack are read here only, by :func:`_ball_runs`.

Whether a graph is connected and whether it is regular of degree at least
one is decided here only: :func:`require_connected` and
:func:`require_regular` raise the typed error, with one message per
condition, for every function that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (
    Disconnected,
    DuplicateEdge,
    EmptySphere,
    IdentityViolated,
    NoEdges,
    NotAnEdge,
    NotRegular,
    SelfLoop,
    VertexOutOfRange,
    WrongDistance,
)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph given by sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    # Derived views are cached on the instance; a frozen dataclass allows
    # this because cached_property writes the instance ``__dict__`` directly.
    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @cached_property
    def _regular_degree(self) -> Optional[int]:
        degs = self.degrees
        return degs[0] if self.n > 0 and len(set(degs)) == 1 else None

    @cached_property
    def _neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adjacency)

    @cached_property
    def dense_adjacency(self) -> np.ndarray:
        """Read-only float64 0/1 adjacency matrix."""
        adj = np.zeros((self.n, self.n), dtype=np.float64)
        rows = np.repeat(np.arange(self.n), self.degrees)
        cols = np.fromiter(
            (w for nbrs in self.adjacency for w in nbrs), dtype=np.intp, count=len(rows)
        )
        adj[rows, cols] = 1.0
        return _read_only(adj)

    @cached_property
    def _distances(self) -> DistanceOracle:
        dist = _kernels.bfs_all_pairs(self.dense_adjacency)
        # a connected graph has exactly one component, so the graph with no
        # vertex is not connected
        connected = self.n > 0 and bool((dist >= 0).all())
        diameter = int(dist.max()) if self.n > 0 else 0
        return DistanceOracle(dist=dist, diameter=diameter, is_connected=connected)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._neighbor_sets[u]

    def is_regular(self) -> Optional[int]:
        """The common degree if the graph is regular, else None."""
        return self._regular_degree

    def neighbor_set(self, v: int) -> frozenset[int]:
        return self._neighbor_sets[v]

    def relabel(self, labels: Sequence[str] | None) -> "Graph":
        return Graph(self.n, self.adjacency, tuple(labels) if labels is not None else None)


# The largest vertex count build_graph accepts, checked before anything is
# allocated: a file can name any n in a few bytes.  Every distance oracle is a
# dense n x n int32 matrix, so the graphs analysed in practice are far smaller.
MAX_VERTICES = 100_000
# The largest edge count a family spec may ask for, worked out from its
# parameters before any generator runs: a vertex count under MAX_VERTICES
# can still mean billions of edges (``complete:100000``).
MAX_EDGES = 10**6


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise VertexOutOfRange(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise VertexOutOfRange(f"vertex count {n} above MAX_VERTICES = {MAX_VERTICES}")


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Graph:
    """Validate an edge list and build a Graph.

    Rejects vertex counts outside ``[0, MAX_VERTICES]``, self-loops,
    duplicate edges (in either orientation) and endpoints outside ``[0, n)``.
    """
    _check_vertex_count(n)
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside [0,{n})")
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    if labels is not None and len(labels) != n:
        raise VertexOutOfRange("label count does not match vertex count")
    return Graph(
        n,
        tuple(tuple(sorted(nbrs)) for nbrs in adj),
        tuple(labels) if labels is not None else None,
    )


@dataclass(frozen=True, eq=False)
class DistanceOracle:
    """All-pairs BFS distances, read-only; ``dist[x, y] == -1`` means unreachable."""

    dist: np.ndarray
    diameter: int
    is_connected: bool

    def __post_init__(self) -> None:
        _read_only(self.dist)

    def d(self, x: int, y: int) -> int:
        return int(self.dist[x, y])

    def eccentricity(self, x: int) -> int:
        return int(self.dist[x].max())

    def sphere(self, x: int, k: int) -> tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(self.dist[x] == k))


def distances(g: Graph) -> DistanceOracle:
    """The distance oracle of g, computed on first use and kept on g."""
    return g._distances


def require_connected(g: Graph) -> None:
    """Raise Disconnected unless g is connected."""
    if not distances(g).is_connected:
        raise Disconnected("input graph is disconnected")


def require_edges(g: Graph) -> None:
    """Raise NoEdges if g has no edge: the one refusal of degree 0.

    A connected graph without an edge is K1, whose diameter 0 every
    verdict of the paper divides by.
    """
    if not any(g.adjacency):  # stops at the first vertex with a neighbour
        raise NoEdges("input graph has no edges")


def require_regular(g: Graph) -> int:
    """The common degree D >= 1 of g; raise NotRegular unless g is regular,
    and NoEdges (by ``require_edges``) if it is regular of degree 0.

    Every regular-graph verdict divides by D or by the diameter, and the
    random walk behind Ollivier's curvature has no step at an isolated
    vertex, so degree 0 is refused here, for all of them.
    """
    deg = g.is_regular()
    if deg is None:
        raise NotRegular("input graph is not regular")
    require_edges(g)
    return deg


def interval(g: Graph, x: int, y: int) -> frozenset[int]:
    """All vertices on geodesics from x to y."""
    d = distances(g)
    dxy = d.d(x, y)
    if dxy < 0:
        return frozenset()
    members = _kernels.interval_members(d.dist[x], d.dist[y], dxy)
    return frozenset(int(v) for v in members)


@dataclass(frozen=True)
class DegreeTriple:
    """In, spherical and out degree of y as seen from x."""

    d_minus: int
    d_zero: int
    d_plus: int


def degree_triple(g: Graph, x: int, y: int) -> DegreeTriple:
    require_connected(g)
    d = distances(g)
    dxy = d.d(x, y)
    minus = zero = plus = 0
    for z in g.adjacency[y]:
        dxz = d.d(x, z)
        if dxz == dxy - 1:
            minus += 1
        elif dxz == dxy:
            zero += 1
        elif dxz == dxy + 1:
            plus += 1
    return DegreeTriple(minus, zero, plus)


def sphere_averages(g: Graph, x: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact mean (in, spherical, out) degrees over the k-sphere of x."""
    sphere = distances(g).sphere(x, k)
    if not sphere:
        raise EmptySphere(f"S_{k}({x}) is empty")
    tm = tz = tp = 0
    for y in sphere:
        t = degree_triple(g, x, y)
        tm += t.d_minus
        tz += t.d_zero
        tp += t.d_plus
    m = len(sphere)
    return Fraction(tm, m), Fraction(tz, m), Fraction(tp, m)


def triangle_count_edge(g: Graph, x: int, y: int) -> int:
    nbrs = g._neighbor_sets
    if y not in nbrs[x]:
        raise NotAnEdge(f"({x},{y}) is not an edge")
    return len(nbrs[x] & nbrs[y])


def triangle_count_vertex(g: Graph, x: int) -> int:
    total = sum(triangle_count_edge(g, x, y) for y in g.adjacency[x])
    if total % 2 != 0:
        raise IdentityViolated("edge/vertex triangle double counting violated")
    return total // 2


def common_neighbors(g: Graph, x: int, y: int) -> frozenset[int]:
    nbrs = g._neighbor_sets
    return nbrs[x] & nbrs[y]


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the tuple mapping new ids to original ids."""
    verts = tuple(sorted(set(vertices)))
    pos = {v: i for i, v in enumerate(verts)}
    edges = [
        (pos[u], pos[w])
        for u in verts
        for w in g.adjacency[u]
        if w in pos and u < w
    ]
    sub = build_graph(len(verts), edges, labels=tuple(str(v) for v in verts))
    return sub, verts


def mu_graph(g: Graph, x: int, z: int) -> Graph:
    """Induced subgraph on the common neighbours of a distance-2 pair."""
    dxz = distances(g).d(x, z)
    if dxz != 2:
        raise WrongDistance(f"d({x},{z}) = {dxz} != 2")
    sub, _ = induced_subgraph(g, sorted(common_neighbors(g, x, z)))
    return sub


# adjacency entries per run of the 2-ball scans, where vertex x counts
# |S1(x)| (|S1(x)| + |S2(x)|), and per chunk of rows of A[xs] @ A
_BALL_BLOCK = 1 << 14


def _ball_runs(g: Graph, xs: Sequence[int]) -> Iterator[list[tuple[np.ndarray, ...]]]:
    """The 2-ball blocks of the vertices ``xs``, in runs of consecutive
    entries of ``xs``, each of at most ``_BALL_BLOCK`` adjacency entries or
    of one vertex.

    A run is a list of groups, one per shape (|S1(x)|, |S2(x)|): the
    ascending positions in ``xs`` of its vertices, their (B, |S2|) 2-sphere
    ids and the (B, |S1|, |S1| + |S2|) stack of A[S1(x), S1(x) + S2(x)],
    each sphere in ascending order.  S2(x) holds the z != x with
    (A^2)[x, z] > 0 and A[x, z] = 0, read off A[xs] @ A, each chunk of rows
    summed only over the vertices they are adjacent to.  No distance oracle
    is read, and every count is a 0/1 product, exact.
    """
    adj, xs = g.dense_adjacency, np.asarray(xs, dtype=np.intp)
    s2s: list[np.ndarray] = []
    step = max(1, _BALL_BLOCK // max(g.n, 1))
    for lo in range(0, len(xs), step):
        rows = adj[xs[lo : lo + step]]
        near = np.flatnonzero(rows.any(axis=0))
        far = (rows[:, near] @ adj[near] > 0) & (rows == 0)
        far[np.arange(len(rows)), xs[lo : lo + step]] = False
        s2s += [np.flatnonzero(f) for f in far]
    runs: list[dict[tuple[int, int], list[int]]] = []
    total = 0
    for i, (x, s2) in enumerate(zip(xs.tolist(), s2s)):
        k = g.degree(x)
        if not runs or total + k * (k + len(s2)) > _BALL_BLOCK:
            runs.append({})
            total = 0
        runs[-1].setdefault((k, len(s2)), []).append(i)
        total += k * (k + len(s2))
    for run in runs:
        groups = []
        for (k, m), pos in run.items():
            s1 = np.array([g.adjacency[x] for x in xs[pos]], dtype=np.intp).reshape(len(pos), k)
            s2 = np.array([s2s[i] for i in pos], dtype=np.intp).reshape(len(pos), m)
            cols = np.concatenate([s1, s2], axis=1)
            groups.append((np.array(pos), s2, adj[s1[:, :, None], cols[:, None, :]]))
        yield groups


def _cocktail_party_stack(s: np.ndarray, members: np.ndarray) -> np.ndarray:
    """m for each member set that induces CP(m), else 0.

    ``s`` is a (B, r, r) stack of 0/1 adjacency blocks and ``members`` a
    (B, r, c) stack of 0/1 columns, each marking a set of rows of its
    block.  A set of size 2m induces CP(m) when every member is adjacent to
    exactly 2m - 2 others; entry (y, j) of ``s @ members`` counts the
    neighbours of row y in column j's set.  Each member then misses exactly
    one other, and missing is symmetric, so the partner pairing is an
    involution without fixed points and the size is even.  The empty set
    reads as m = 0, not CP.
    """
    size = members.sum(axis=1)
    cp = ((s @ members == size[:, None, :] - 2) | (members == 0)).all(axis=1)
    return (size / 2 * cp).astype(np.int64)


def is_cocktail_party(g: Graph) -> Optional[int]:
    """m such that g is CP(m): 2m vertices, each with a unique non-neighbour.

    CP(1), two isolated vertices, is accepted.
    """
    m = int(_cocktail_party_stack(g.dense_adjacency[None], np.ones((1, g.n, 1)))[0, 0])
    return m or None


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular parameters; ``lam is None`` is the wildcard for edgeless graphs."""

    nu: int
    k: int
    lam: Optional[int]
    mu: int


def _srg_params_stack(s: np.ndarray) -> list[Optional[SrgParams]]:
    """The strongly regular parameters of the graph of each 0/1 adjacency
    matrix in the (B, n, n) stack ``s``, else None.

    Complete graphs, the empty one included, are excluded by convention.  A
    graph of n isolated points counts as (n, 0, *, 0) with wildcard lambda.
    Entry (y, y') of ``s @ s`` counts the common neighbours of y and y':
    lambda is its value on the edges, mu on the other off-diagonal cells,
    and each must be constant.
    """
    count, n = s.shape[:2]
    if n == 0:
        return [None] * count
    degrees = s.sum(axis=2)
    k = degrees[:, 0]
    regular = (degrees == k[:, None]).all(axis=1) & (k < n - 1)
    common = s @ s
    lam_lo, lam_hi = _range_on(common, s, n)
    mu_lo, mu_hi = _range_on(common, 1.0 - s - np.eye(n), n)
    out: list[Optional[SrgParams]] = []
    for i in range(count):
        if not regular[i]:
            out.append(None)
        elif k[i] == 0:
            out.append(SrgParams(n, 0, None, 0))
        elif lam_lo[i] != lam_hi[i] or mu_lo[i] != mu_hi[i]:
            out.append(None)
        else:  # neither cell set is empty: 0 < k < n - 1
            out.append(SrgParams(n, int(k[i]), int(lam_lo[i]), int(mu_lo[i])))
    return out


def _range_on(counts: np.ndarray, mask: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of each matrix of counts in [0, n) in the stack over the
    cells where the 0/1 ``mask`` is 1: a count outside the mask reads as n
    for the minimum and as 0 for the maximum."""
    return (counts + n * (1.0 - mask)).min(axis=(1, 2)), (counts * mask).max(axis=(1, 2))


def is_strongly_regular(g: Graph) -> Optional[SrgParams]:
    """Detect strong regularity; see :func:`_srg_params_stack`."""
    return _srg_params_stack(g.dense_adjacency[None])[0]


def intersection_array(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """((b_0..b_{L-1}), (c_1..c_L)) when g is distance-regular, else None.

    Entry (x, y) of ``(dist == k) @ A`` counts the neighbours of y at
    distance k from x, so b_j and c_j are the products for k = j + 1 and
    k = j - 1, each read where dist == j, when that reading is constant.
    """
    d = distances(g)
    if not d.is_connected or g.is_regular() is None:
        return None
    L = d.diameter
    at = [(d.dist == k).astype(np.float64) @ g.dense_adjacency for k in range(L + 1)]

    def constant(k: int, j: int) -> Optional[int]:
        values = at[k][d.dist == j]
        return int(values[0]) if values.min() == values.max() else None

    b = tuple(constant(j + 1, j) for j in range(L))
    c = tuple(constant(j - 1, j) for j in range(1, L + 1))
    if None in b or None in c:
        return None
    return b, c  # type: ignore[return-value]


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; vertex (u, v) maps to index u * g2.n + v.

    Degrees add, and so do distances: d((u, v), (u', v')) = d1(u, u') +
    d2(v, v').  The product of two connected factors is therefore connected,
    with diameter diam(g1) + diam(g2).
    """
    n1, n2 = g1.n, g2.n
    _check_vertex_count(n1 * n2)
    edges: list[tuple[int, int]] = []
    for u in range(n1):
        for v in range(n2):
            base = u * n2 + v
            for w in g2.adjacency[v]:
                if v < w:
                    edges.append((base, u * n2 + w))
            for w in g1.adjacency[u]:
                if u < w:
                    edges.append((base, w * n2 + v))
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = tuple(
            f"({g1.labels[u]},{g2.labels[v]})" for u in range(n1) for v in range(n2)
        )
    return build_graph(n1 * n2, edges, labels=labels)


def poles_and_antipoles(g: Graph) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Per-vertex antipole lists {y : d(x,y) = diam} and the self-centered
    flag; K1, where L = 0, is refused with ``NoEdges``."""
    require_connected(g)
    require_edges(g)
    d = distances(g)
    L = d.diameter
    per_vertex = tuple(d.sphere(x, L) for x in range(g.n))
    self_centered = all(len(a) > 0 for a in per_vertex)
    return per_vertex, self_centered
