"""Exact Wasserstein-1 transport and Ollivier-Ricci curvature.

All arithmetic is exact rational: equal-mass measures reduce to an integer
assignment problem (Hungarian kernel), general rational idleness reduces to
integer min-cost flow after scaling to a common denominator.  Sharpness of
curvature values is an equality of rationals, so no tolerances appear
anywhere in this module.  W1 depends only on the difference of the two
measures, so ``wasserstein`` leaves their shared mass in place and solves
only the remainders.  ``kappa`` has one route, no fast path: the shared
1-ball mass cancels and one assignment between the 1-ball differences is
solved.  At an edge, the cost of that assignment also says whether the
difference neighbourhoods have a perfect adjacency matching: ``kappa``
labels the edge "matching" exactly then.  ``kappas`` runs that route for a
whole list of pairs with array operations: one index of ascending closed
1-balls for the vertices the pairs name, one gather of B1(x) and B1(y) for
every pair, the differences read off the distance mask dist[y, B1(x)] > 1
(and dist[x, B1(y)] > 1), the problems of one size stacked into one kernel
call, and one shared (frozen) value per distinct (cost, distance, size).
``kappa`` is ``kappas`` on one pair; through ``_pairs_degree`` all four
curvature entry points refuse a vertex outside [0, n).  They and the
equal-atom branch of ``wasserstein`` (``_assignment``, a stack of one)
solve through ``_solve``, which checks every answer against its own dual
before it is used; with a plan, ``kappa`` is read off that W1 solve by the
same rule.
Both solvers read their costs from ``_costs``, the one place that turns
graph distances into transport costs; no function here takes a distance
oracle.  The min-cost flow of unequal atoms (``_transportation``) numbers
its nodes once, sources then sinks, keeps one list per node quantity and
breaks ties toward the lower node; the forced-pair peel of the matching
maps (``unique_perfect_matching``) pairs list entries, not vertices.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (
    BadIdleness,
    BadMeasure,
    MuGraphNotCP,
    NoAntipole,
    NotAnEdge,
    NotBMSharp,
    NotFullLength,
    NotPerfectMatching,
    PreconditionUnmet,
    SamePair,
    SolverFailed,
    UnbalancedTransport,
    VertexOutOfRange,
    WrongDistance,
)
from .graphs import (
    Graph,
    common_neighbors,
    distances,
    interval,
    require_connected,
    require_regular,
)

# entries of one (B, n, n) cost stack that ``kappas`` hands to the kernel
_SOLVE_BLOCK = 1 << 14


@dataclass(frozen=True)
class Measure:
    """Probability measure on vertices with exact rational masses."""

    mass: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_dict(masses: Mapping[int, Fraction]) -> "Measure":
        items = tuple(
            (int(v), Fraction(m)) for v, m in sorted(masses.items()) if m != 0
        )
        if any(m < 0 for _, m in items):
            raise BadMeasure("negative mass")
        if sum((m for _, m in items), Fraction(0)) != 1:
            raise BadMeasure("masses must sum to exactly 1")
        return Measure(items)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.mass)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.mass)

    def __call__(self, v: int) -> Fraction:
        for u, m in self.mass:
            if u == v:
                return m
        return Fraction(0)


def idle_measure(g: Graph, x: int, p: Fraction | int) -> Measure:
    """Mass p at x and (1-p)/deg(x) on each neighbour."""
    p = _as_fraction(p, "idleness")
    if not (0 <= p <= 1):
        raise BadIdleness(f"idleness {p} outside [0, 1]")
    masses: dict[int, Fraction] = {x: p}
    if p != 1:
        deg = g.degree(x)
        if deg == 0:
            raise BadIdleness("idleness < 1 at an isolated vertex")
        share = (1 - p) / deg
        for y in g.adjacency[x]:
            masses[y] = share
    return Measure.from_dict(masses)


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, float):
        raise BadIdleness(f"{what} must be rational, got float {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling with exact marginals."""

    entries: tuple[tuple[int, int, Fraction], ...]
    source: Measure
    target: Measure

    def __post_init__(self) -> None:
        row: dict[int, Fraction] = {}
        col: dict[int, Fraction] = {}
        for u, v, m in self.entries:
            if m <= 0:
                raise BadMeasure("plan entries must be positive")
            row[u] = row.get(u, Fraction(0)) + m
            col[v] = col.get(v, Fraction(0)) + m
        if row != {u: m for u, m in self.source.mass}:
            raise BadMeasure("row marginals do not match the source measure")
        if col != {v: m for v, m in self.target.mass}:
            raise BadMeasure("column marginals do not match the target measure")

    def cost(self, g: Graph) -> Fraction:
        require_connected(g)
        d = distances(g)
        return sum((m * d.d(u, v) for u, v, m in self.entries), Fraction(0))

    def to_json(self) -> dict:
        return {
            "entries": [[u, v, str(m)] for u, v, m in self.entries],
        }


@dataclass(frozen=True)
class CurvatureValue:
    """Exact curvature with the computation path that produced it."""

    value: Fraction
    # "matching" (kappa at an edge whose reduced assignment costs C == |left|,
    # i.e. a perfect adjacency matching) | "assignment"
    method: str


def wasserstein(g: Graph, m1: Measure, m2: Measure) -> tuple[Fraction, TransportPlan]:
    """Exact W1 distance and an optimal plan attaining it.

    W1 depends only on m1 - m2, so the shared mass min(m1, m2) stays in
    place as diagonal plan entries and only the two remainders travel: by
    one integer assignment when they are equal uniform atoms, else by
    integer min-cost flow on the common denominator scaling.
    """
    require_connected(g)
    a, b = m1.as_dict(), m2.as_dict()
    kept = [(v, v, min(m, b[v])) for v, m in m1.mass if v in b]
    source = [(u, m - b.get(u, 0)) for u, m in m1.mass if m > b.get(u, 0)]
    target = [(v, m - a.get(v, 0)) for v, m in m2.mass if m > a.get(v, 0)]
    if len(source) == len(target) and len({m for _, m in source + target}) == 1:
        unit = source[0][1]
        total, pairs = _assignment(g, [u for u, _ in source], [v for v, _ in target])
        value, moved = unit * total, [(u, v, unit) for u, v in pairs]
    else:
        value, moved = _wasserstein_flow(g, source, target)
    entries = tuple(sorted(kept + moved))
    return value, TransportPlan(entries=entries, source=m1, target=m2)


def _costs(g: Graph, us: Sequence, vs: Sequence) -> np.ndarray:
    """The transport costs from ``us`` to ``vs``: their graph distances.

    ``us`` and ``vs`` are vertex lists, or (B, n) arrays of B lists each,
    which give a (B, n, n) stack.
    """
    us, vs = np.asarray(us, dtype=np.intp), np.asarray(vs, dtype=np.intp)
    return distances(g).dist[us[..., :, None], vs[..., None, :]]


def _solve(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least totals and row -> column assignments of a (B, n, n) cost stack.

    One Hungarian kernel call; each answer is certified before it is used:
    the assignment is a permutation, the potentials are feasible
    (u_i + v_j <= c_ij in every cell) and their sum equals its total, so by
    LP duality no assignment costs less.
    """
    row_to_col, u, v = _kernels.hungarian(cost)
    rows = np.arange(len(cost))[:, None]
    totals = cost[rows, np.arange(cost.shape[1]), row_to_col].sum(axis=1)
    hit = np.zeros(row_to_col.shape, dtype=bool)
    hit[rows, row_to_col] = True
    if not (
        hit.all()
        and (u[:, :, None] + v[:, None, :] <= cost).all()
        and (u.sum(axis=1) + v.sum(axis=1) == totals).all()
    ):
        raise SolverFailed("an assignment failed its dual certificate")
    return totals, row_to_col


def _assignment(
    g: Graph, us: Sequence[int], vs: Sequence[int]
) -> tuple[int, list[tuple[int, int]]]:
    """The least total cost of a bijection from ``us`` onto ``vs``, and its
    pairs, by one certified Hungarian solve; times a common atom mass it is W1."""
    totals, row_to_col = _solve(_costs(g, [us], [vs]))
    return int(totals[0]), [(u, vs[j]) for u, j in zip(us, row_to_col[0].tolist())]


def _wasserstein_flow(
    g: Graph,
    source: Sequence[tuple[int, Fraction]],
    target: Sequence[tuple[int, Fraction]],
) -> tuple[Fraction, list[tuple[int, int, Fraction]]]:
    """W1 and plan entries between atoms of equal total rational mass."""
    denom = math.lcm(*(m.denominator for _, m in (*source, *target)))
    us, vs = [u for u, _ in source], [v for v, _ in target]
    supply = [int(m * denom) for _, m in source]
    demand = [int(m * denom) for _, m in target]
    total, flow = _transportation(_costs(g, us, vs).tolist(), supply, demand)
    entries = [(us[i], vs[j], Fraction(f, denom)) for (i, j), f in flow.items()]
    return Fraction(total, denom), entries


def _transportation(
    cost: list[list[int]], supply: list[int], demand: list[int]
) -> tuple[int, dict[tuple[int, int], int]]:
    """Integer transportation problem by successive shortest augmenting paths.

    Non-negative integer costs; exact optimum.  Sources are nodes 0..ns-1
    and sinks ns..ns+nt-1; one list per quantity holds every node's
    distance, parent, potential phi and unshipped mass.  Each round lists
    the residual arcs (head, cost) out of every node, heads ascending:
    source i to each sink ns + j at cost[i][j], sink ns + j back to each
    source i shipping to it at -cost[i][j].  The potentials keep every
    reduced cost c + phi[tail] - phi[head] >= 0, so each augmentation is a
    plain Dijkstra run from the sources that still hold supply.  Ties go to
    the lower node: heap entries (distance, node) pop sources before sinks,
    a parent changes only on a strictly shorter distance, and the path ends
    at the nearest reached sink with demand left.  Each potential then
    rises by min(distance, d*), d* that sink's distance; a node no path
    reaches, a source without supply, rises by d*, so its arcs out keep
    their reduced costs >= 0.  The potentials certify the answer before it
    is returned (see ``_certify_flow``).
    """
    ns = len(supply)
    if sum(supply) != sum(demand):
        raise UnbalancedTransport(f"supply {sum(supply)} != demand {sum(demand)}")
    nodes = range(ns + len(demand))
    sinks = nodes[ns:]
    mass, phi = [*supply, *demand], [0] * len(nodes)
    forward = [list(zip(sinks, row)) for row in cost]
    flow: dict[tuple[int, int], int] = {}
    while any(mass[:ns]):
        arcs = forward + [[] for _ in sinks]  # (head, cost) of each residual arc out of each node
        for i, j in sorted(flow):
            arcs[ns + j].append((i, -cost[i][j]))
        dist: list = [0 if m > 0 else None for m in mass[:ns]] + [None] * len(sinks)
        heap = [(0, u) for u, d in enumerate(dist[:ns]) if d == 0]
        par = [-1] * len(nodes)  # -1 marks a root source
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            du += phi[u]
            for v, c in arcs[u]:
                dv = du + c - phi[v]
                if dist[v] is None or dv < dist[v]:
                    dist[v], par[v] = dv, u
                    heapq.heappush(heap, (dv, v))
        reached = [(d, v) for v, d, m in zip(sinks, dist[ns:], mass[ns:]) if m > 0 and d is not None]
        if not reached:
            raise SolverFailed("transportation problem is infeasible")
        dstar, sink = min(reached)
        path = [sink]  # sink, source, sink, ..., root source
        while par[path[-1]] >= 0:
            path.append(par[path[-1]])
        # the (source, sink) key of each path arc: forward, backward, forward, ...
        keys = [(min(u, v), max(u, v) - ns) for u, v in zip(path, path[1:])]
        step = min(mass[path[-1]], mass[sink], *(flow[a] for a in keys[1::2]))
        for a in keys[::2]:
            flow[a] = flow.get(a, 0) + step
        for a in keys[1::2]:
            flow[a] -= step
            if flow[a] == 0:
                del flow[a]
        mass[path[-1]] -= step
        mass[sink] -= step
        for u in nodes:
            phi[u] += dstar if dist[u] is None else min(dist[u], dstar)
    total = sum(cost[i][j] * f for (i, j), f in flow.items())
    _certify_flow(cost, list(supply), list(demand), flow, phi[:ns], phi[ns:], total)
    return total, flow


def _certify_flow(
    cost: list[list[int]],
    supply: list[int],
    demand: list[int],
    flow: dict[tuple[int, int], int],
    phi_s: list[int],
    phi_t: list[int],
    total: int,
) -> None:
    """Raise ``SolverFailed`` unless the potentials prove the flow optimal:
    the flow is positive and ships every supply to every demand, every
    reduced cost cost[i][j] + phi_s[i] - phi_t[j] is >= 0, and 0 on every
    arc that carries flow, and the dual value
    sum demand phi_t - sum supply phi_s equals the total, so by LP duality
    (Kantorovich-Rubinstein) no flow costs less."""
    shipped, met = [0] * len(supply), [0] * len(demand)
    for (i, j), f in flow.items():
        shipped[i] += f
        met[j] += f
    feasible = (
        shipped == supply
        and met == demand
        and all(f > 0 and cost[i][j] + phi_s[i] == phi_t[j] for (i, j), f in flow.items())
        and all(c + p >= q for row, p in zip(cost, phi_s) for c, q in zip(row, phi_t))
    )
    dual = sum(d * q for d, q in zip(demand, phi_t)) - sum(s * p for s, p in zip(supply, phi_s))
    if not (feasible and dual == total):
        raise SolverFailed("a transportation flow failed its dual certificate")


def _pairs_degree(g: Graph, pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, int]:
    """The (P, 2) array of the pairs and the degree D of g, once every pair
    is two distinct vertices, g is connected and regular, and every vertex
    is one of g's, checked in that order; an id too large for an index is
    refused first."""
    try:
        ends = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)
    except OverflowError as exc:
        raise VertexOutOfRange(f"vertex outside [0,{g.n}): {exc}") from None
    if (ends[:, 0] == ends[:, 1]).any():
        raise SamePair("curvature needs two distinct vertices")
    require_connected(g)
    deg = require_regular(g)
    outside = ends.view(np.uintp) >= g.n  # a negative id views as a huge unsigned one
    if outside.any():
        raise VertexOutOfRange(f"vertex {ends[outside][0]} outside [0,{g.n})")
    return ends, deg


def kappa_p(g: Graph, x: int, y: int, p: Fraction | int) -> CurvatureValue:
    """p-idleness Ollivier-Ricci curvature 1 - W1(mu_x^p, mu_y^p)/d(x,y)."""
    return _kappa_p_plan(g, x, y, p)[0]


def _kappa_p_plan(
    g: Graph, x: int, y: int, p: Fraction | int
) -> tuple[CurvatureValue, TransportPlan]:
    """``kappa_p`` together with the optimal plan of its one W1 solve."""
    _pairs_degree(g, [(x, y)])
    p = _as_fraction(p, "idleness")
    w1, plan = wasserstein(g, idle_measure(g, x, p), idle_measure(g, y, p))
    value = 1 - w1 / distances(g).d(x, y)
    return CurvatureValue(value=value, method="assignment"), plan


def kappa(g: Graph, x: int, y: int) -> CurvatureValue:
    """The rescaled curvature (D+1)/D * kappa_{1/(D+1)}(x, y), in one solve.

    W1 depends only on mu_x - mu_y, so the shared 1-ball atoms cancel and the
    value is (D+1)/D - C/(D d(x,y)), C the assignment cost between
    left = B1(x) - B1(y) and right = B1(y) - B1(x).  At an edge C >= |left|,
    with equality exactly when a perfect adjacency matching exists: then the
    value is (2+|N_xy|)/D and the method is "matching", else "assignment".
    """
    return kappas(g, [(x, y)])[(x, y)]


def kappas(g: Graph, pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], CurvatureValue]:
    """``kappa`` of every pair, keyed by the pair, in the order given.

    The closed 1-balls of the vertices that the pairs name form one
    (k, D+1) index, each row ascending.  Gathered for every x and every y at
    once, the mask dist[y, B1(x)] > 1 picks left = B1(x) - B1(y) and
    dist[x, B1(y)] > 1 picks right, both still ascending.  Pairs whose left
    sets have one size (on a regular graph |left| = |right|) share one
    gather of their cost matrices and one Hungarian kernel call, in blocks
    of at most ``_SOLVE_BLOCK`` cost entries.  Pairs with equal cost C,
    distance d(x, y) and size share one (frozen) ``CurvatureValue``.
    """
    pairs = list(pairs)
    ends, deg = _pairs_degree(g, pairs)
    dist = distances(g).dist
    named = np.flatnonzero(np.bincount(ends.ravel(), minlength=g.n))
    # int32 ids, as in the distance matrix, halve the gathered balls below
    index = np.array([sorted((v, *g.adjacency[v])) for v in named.tolist()], dtype=np.int32)
    row = np.zeros(g.n, dtype=np.intp)
    row[named] = np.arange(len(named))
    # B1(x) and B1(y) of every pair; B1(x) - B1(y) is where dist[y, B1(x)] > 1
    balls = index.reshape(len(named), deg + 1)[row[ends]]
    moved = dist[ends[:, ::-1, None], balls] > 1
    sizes = moved[:, 0].sum(axis=1)
    totals = np.empty(len(pairs), dtype=np.int64)
    for size in sorted(set(sizes.tolist())):
        group = sizes == size
        (rows,) = np.nonzero(group)
        sides = balls[moved & group[:, None, None]].reshape(len(rows), 2, size)
        block = max(1, _SOLVE_BLOCK // max(1, size * size))
        for lo in range(0, len(rows), block):
            chunk = sides[lo : lo + block]
            totals[rows[lo : lo + block]] = _solve(_costs(g, chunk[:, 0], chunk[:, 1]))[0]
    keys = list(zip(dist[ends[:, 0], ends[:, 1]].tolist(), totals.tolist(), sizes.tolist()))
    values = {key: _kappa_from_cost(deg, *key) for key in set(keys)}
    return dict(zip(pairs, map(values.__getitem__, keys)))


def _kappa_from_cost(deg: int, dxy: int, c: int, moved: int) -> CurvatureValue:
    """``kappa`` at distance ``dxy`` from the cost C of an assignment of
    ``moved`` unit atoms."""
    method = "matching" if dxy == 1 and c == moved else "assignment"
    # (D+1)/D - C/(D d), as one fraction
    return CurvatureValue(Fraction((deg + 1) * dxy - c, deg * dxy), method)


def _kappa_plan(g: Graph, x: int, y: int) -> tuple[CurvatureValue, TransportPlan]:
    """``kappa`` and the optimal plan of its one W1 solve: at idleness 1/(D+1)
    the shared atoms stay and ``kappa``'s assignment, of cost (D+1) W1, moves the rest."""
    _, deg = _pairs_degree(g, [(x, y)])
    p = Fraction(1, deg + 1)
    w1, plan = wasserstein(g, idle_measure(g, x, p), idle_measure(g, y, p))
    moved = sum(u != v for u, v, _ in plan.entries)
    return _kappa_from_cost(deg, distances(g).d(x, y), int(w1 * (deg + 1)), moved), plan


def matching_sides(
    g: Graph, x: int, y: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two difference neighbourhoods N_x \\ (N_xy + {y}) and N_y \\ (N_xy + {x})."""
    nxy = common_neighbors(g, x, y)
    left = tuple(u for u in g.adjacency[x] if u not in nxy and u != y)
    right = tuple(v for v in g.adjacency[y] if v not in nxy and v != x)
    return left, right


def unique_perfect_matching(
    g: Graph, left: Sequence[int], right: Sequence[int]
) -> Optional[dict[int, int]]:
    """The unique perfect matching between two vertex lists, or None.

    It pairs entries, not vertices: left[i] is entry i and right[j] entry
    j, so the lists may share a vertex, and one listed twice gives two
    interchangeable entries and no unique matching.  The peel pairs an
    active left entry with its one remaining option and drops both.  A
    unique matching has no alternating cycle, so with its edges oriented
    right to left and the others left to right the digraph has a sink: a
    left entry with one option.  The peel thus completes exactly when a
    perfect matching exists and is unique, and else gives None.
    """
    k = len(left)
    if len(right) != k:
        return None
    options: list[set[int]] = []
    for u in left:
        near = g.neighbor_set(u)
        options.append({j for j, v in enumerate(right) if v in near})
    matching: dict[int, int] = {}
    active = set(range(k))
    while active:
        for i in active:
            if len(options[i]) < 2:
                break
        else:
            return None  # every active entry has two options or more: not unique
        if not options[i]:
            return None  # no perfect matching
        (j,) = options[i]
        matching[left[i]] = right[j]
        active.remove(i)
        for w in active:
            options[w].discard(j)
    return matching


@dataclass(frozen=True)
class TransportMap:
    """A bijective transport map on 1-balls and its cost."""

    source: int
    target: int
    mapping: tuple[tuple[int, int], ...]
    cost: Fraction

    def apply(self, v: int) -> int:
        for u, w in self.mapping:
            if u == v:
                return w
        raise PreconditionUnmet(f"{v} is not in the 1-ball of {self.source}")


def tpm_transport_map(
    g: Graph, x: int, y: int, matching: Mapping[int, int]
) -> TransportMap:
    """Transport map based on triangles and a perfect matching along edge (x, y).

    Identity on the common neighbourhood and on {x, y}; matched difference
    neighbours move along their matching edge.  Cost is (D-1-m)/(D+1).
    """
    deg = require_regular(g)
    if not g.has_edge(x, y):
        raise NotAnEdge(f"({x},{y}) is not an edge")
    left, right = matching_sides(g, x, y)
    if sorted(matching.keys()) != sorted(left) or sorted(matching.values()) != sorted(right):
        raise NotPerfectMatching("matching does not pair the difference neighbourhoods")
    for u, v in matching.items():
        if not g.has_edge(u, v):
            raise NotPerfectMatching(f"matched pair ({u},{v}) is not an edge")
    fixed = sorted(common_neighbors(g, x, y) | {x, y})
    mapping = tuple(
        [(u, u) for u in fixed] + sorted(matching.items())
    )
    cost = Fraction(len(left), deg + 1)
    return TransportMap(source=x, target=y, mapping=mapping, cost=cost)


def unique_tpm_transport_map(g: Graph, x: int, y: int) -> TransportMap:
    """The unique triangle-and-matching transport map along an edge.

    Raises NotBMSharp when the perfect matching is missing or ambiguous,
    which on a self-centered Bonnet-Myers sharp graph cannot happen.
    """
    left, right = matching_sides(g, x, y)
    matching = unique_perfect_matching(g, left, right)
    if matching is None:
        raise NotBMSharp(
            f"edge ({x},{y}): no uniquely determined perfect matching"
        )
    return tpm_transport_map(g, x, y, matching)


@dataclass(frozen=True)
class TransportGeodesic:
    """Waypoints of a vertex pushed along a full-length geodesic."""

    base: tuple[int, ...]
    waypoints: tuple[int, ...]
    length: int


def transport_geodesic(g: Graph, geodesic: Sequence[int], z: int) -> TransportGeodesic:
    """Push z through the concatenated unique transport maps along a geodesic.

    The graph must be connected and regular; the geodesic must have full
    length diam(G); z must lie in the 1-ball of its start.  Each step map is the unique triangle-and-matching map of the
    corresponding edge.
    """
    require_connected(g)
    require_regular(g)
    path = tuple(geodesic)
    d = distances(g)
    L = d.diameter
    if len(path) != L + 1:
        raise NotFullLength(
            f"geodesic has {len(path) - 1} edges, diameter is {L}"
        )
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise NotFullLength(f"({a},{b}) along the path is not an edge")
    if d.d(path[0], path[-1]) != L:
        raise NotFullLength("vertex sequence is not a geodesic")
    if not 0 <= d.d(path[0], z) <= 1:
        raise PreconditionUnmet(f"{z} is not in the 1-ball of {path[0]}")
    waypoints = [z]
    for a, b in zip(path, path[1:]):
        t = unique_tpm_transport_map(g, a, b)
        waypoints.append(t.apply(waypoints[-1]))
    total_steps = sum(d.d(u, v) for u, v in zip(waypoints, waypoints[1:]))
    length = d.d(waypoints[0], waypoints[-1])
    if total_steps != length:
        raise NotBMSharp("waypoints do not lie on a common geodesic")
    return TransportGeodesic(base=path, waypoints=tuple(waypoints), length=length)


def geodesic_between(
    g: Graph, x: int, y: int, via: Sequence[int] = ()
) -> tuple[int, ...]:
    """Some geodesic from x to y passing through the (ordered) via vertices."""
    require_connected(g)
    d = distances(g)
    stops = [x, *via, y]
    legs = [d.d(a, b) for a, b in zip(stops, stops[1:])]
    if sum(legs) != d.d(x, y):
        raise PreconditionUnmet("via vertices do not lie on a common geodesic")
    path = [x]
    for a, b in zip(stops, stops[1:]):
        cur = a
        while cur != b:
            cur = next(
                w for w in g.adjacency[cur] if d.d(w, b) == d.d(cur, b) - 1
            )
            path.append(cur)
    return tuple(path)


def interval_antipole(g: Graph, x: int, y: int, x1: int) -> int:
    """The unique z in [x, y] with d(x1, z) = d(x, y), for x1 a neighbour of x
    inside the interval.

    Computed twice: by pushing x along the transport maps of a full-length
    geodesic through x1 and y, and by brute-force scan of the interval; the
    two must agree.
    """
    require_connected(g)
    d = distances(g)
    k = d.d(x, y)
    if k == 0:
        raise SamePair("interval antipole needs distinct endpoints")
    iv = interval(g, x, y)
    if x1 not in iv or d.d(x, x1) != 1:
        raise PreconditionUnmet(f"{x1} is not in [x,y] and adjacent to {x}")
    brute = [z for z in sorted(iv) if d.d(x1, z) == k]
    if len(brute) != 1:
        raise NoAntipole(
            f"interval [{x},{y}] carries {len(brute)} antipole candidates for {x1}"
        )
    L = d.diameter
    far = [w for w in range(g.n) if d.d(x, w) == L and d.d(x1, w) == L - 1 and d.d(y, w) == L - k]
    if not far:
        raise NoAntipole(f"no full-length geodesic extends [{x},{y}] through {x1}")
    path = geodesic_between(g, x, far[0], via=(x1, y))
    tg = transport_geodesic(g, path, x)
    candidate = tg.waypoints[k]
    if candidate != brute[0]:
        raise NoAntipole(
            f"transport antipole {candidate} disagrees with brute force {brute[0]}"
        )
    return candidate


def switching_map(g: Graph, x: int, y: int) -> dict[int, int]:
    """The involution pairing each common neighbour of a distance-2 pair with
    its unique non-neighbour inside the mu-graph."""
    dxy = distances(g).d(x, y)
    if dxy != 2:
        raise WrongDistance(f"d({x},{y}) = {dxy} != 2")
    members = sorted(common_neighbors(g, x, y))
    member_set = set(members)
    sigma: dict[int, int] = {}
    for z in members:
        non_nbrs = member_set - {z} - set(g.adjacency[z])
        if len(non_nbrs) != 1:
            raise MuGraphNotCP(
                f"mu-graph of ({x},{y}) is not a cocktail party graph at {z}"
            )
        sigma[z] = next(iter(non_nbrs))
    for z, w in sigma.items():
        if sigma[w] != z:
            raise MuGraphNotCP(f"switching map not involutive at {z}")
    return sigma
