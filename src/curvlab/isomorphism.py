"""Graph isomorphism by invariant refinement plus backtracking.

Good enough for the desk-scale graphs handled here (a few hundred
vertices).  Vertex colors start from degree/distance profiles and are
refined by neighbour color multisets; the backtracking search maps one
vertex at a time, always picking an uncovered vertex adjacent to the
mapped region and pruning on exact adjacency agreement.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .graphs import DistanceOracle, Graph, distances


def _invariant(g: Graph, d: DistanceOracle) -> tuple:
    dist_profile = tuple(sorted(tuple(sorted(Counter(int(v) for v in row).items())) for row in d.dist))
    tri = sum(
        len(g.neighbor_set(u) & g.neighbor_set(v)) for u, v in g.edges()
    )
    return (g.n, tuple(sorted(g.degrees)), g.edge_count, tri, dist_profile)


def _refined_colors(g: Graph, d: DistanceOracle) -> list[int]:
    colors = [hash((g.degree(v), tuple(sorted(Counter(int(x) for x in d.dist[v]).items())))) for v in range(g.n)]
    for _ in range(g.n):
        table: dict[tuple, int] = {}
        new = []
        for v in range(g.n):
            sig = (colors[v], tuple(sorted(colors[w] for w in g.adjacency[v])))
            new.append(table.setdefault(sig, len(table)))
        if new == colors:
            break
        colors = new
    return colors


def find_isomorphism(g1: Graph, g2: Graph) -> Optional[tuple[int, ...]]:
    """A vertex bijection mapping g1 onto g2, or None.

    The returned tuple maps vertex v of g1 to ``result[v]`` in g2.
    """
    return find_isomorphism_with(g1, distances(g1), g2, distances(g2))


def find_isomorphism_with(
    g1: Graph, d1: DistanceOracle, g2: Graph, d2: DistanceOracle
) -> Optional[tuple[int, ...]]:
    """:func:`find_isomorphism` for graphs whose distance oracles the caller holds."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    if _invariant(g1, d1) != _invariant(g2, d2):
        return None
    n = g1.n
    if n == 0:
        return ()
    c1 = _refined_colors(g1, d1)
    c2 = _refined_colors(g2, d2)
    # Color ids are hash-derived per graph; renumber jointly so classes compare.
    joint: dict[int, int] = {}
    c1 = [joint.setdefault(c, len(joint)) for c in c1]
    c2 = [joint.setdefault(c, len(joint)) for c in c2]
    if Counter(c1) != Counter(c2):
        return None

    adj1 = [g1.neighbor_set(v) for v in range(n)]
    adj2 = [g2.neighbor_set(v) for v in range(n)]
    dist1 = d1.dist
    dist2 = d2.dist
    mapping = [-1] * n
    inverse = [-1] * n
    mapped: list[int] = []

    def order_vertices() -> list[int]:
        # BFS-ish order over g1 keeps each new vertex attached to mapped ones.
        seen = [False] * n
        order: list[int] = []
        for root in sorted(range(n), key=lambda v: (-g1.degree(v), v)):
            if seen[root]:
                continue
            stack = [root]
            seen[root] = True
            while stack:
                v = stack.pop()
                order.append(v)
                for w in sorted(adj1[v], key=lambda x: (-g1.degree(x), x)):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        return order

    order = order_vertices()

    def candidates(v: int) -> list[int]:
        mapped_nbrs = [mapping[w] for w in adj1[v] if mapping[w] >= 0]
        if mapped_nbrs:
            cands = set(adj2[mapped_nbrs[0]])
            for u in mapped_nbrs[1:]:
                cands &= adj2[u]
        else:
            cands = set(range(n))
        return sorted(
            u for u in cands if inverse[u] < 0 and c2[u] == c1[v] and g2.degree(u) == g1.degree(v)
        )

    def feasible(v: int, u: int) -> bool:
        # distance profile to the mapped region must match exactly; this
        # subsumes adjacency consistency and prunes symmetric products fast
        for w in mapped:
            if dist1[v, w] != dist2[u, mapping[w]]:
                return False
        deg_in_mapped_1 = sum(1 for w in adj1[v] if mapping[w] >= 0)
        deg_in_mapped_2 = sum(1 for w in adj2[u] if inverse[w] >= 0)
        return deg_in_mapped_1 == deg_in_mapped_2

    def search(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for u in candidates(v):
            if feasible(v, u):
                mapping[v] = u
                inverse[u] = v
                mapped.append(v)
                if search(idx + 1):
                    return True
                mapped.pop()
                mapping[v] = -1
                inverse[u] = -1
        return False

    if search(0):
        return tuple(mapping)
    return None


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None


def verify_isomorphism(g1: Graph, g2: Graph, mapping: tuple[int, ...]) -> bool:
    if len(mapping) != g1.n or sorted(mapping) != list(range(g2.n)):
        return False
    for u, v in g1.edges():
        if not g2.has_edge(mapping[u], mapping[v]):
            return False
    return g1.edge_count == g2.edge_count
