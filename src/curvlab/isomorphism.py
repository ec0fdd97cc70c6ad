"""Graph isomorphism by individualize-and-refine.

The search colours the disjoint union of the two graphs, so that a colour
means the same thing in both halves.  Every vertex starts with its distance
profile, the sorted row of its distance oracle, and colours are refined by
neighbour-colour multisets until the colouring is stable.  Colour ids are
ranks of the sorted signatures, so they agree between the halves.  When the
halves hold different colour counts, no isomorphism extends the choices made
so far.  Otherwise one g1 vertex of a smallest open class is individualized
against each g2 vertex of that class in turn: every class is split by
distance to the pair, and refinement runs again.  This is the search of
McKay-Piperno, *Practical graph isomorphism II* (arXiv 1301.1493), without
the canonical labelling.  A discrete colouring pairs the vertices, and the
pairing is returned only once it is verified to be an isomorphism.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from .graphs import Graph, distances


def find_isomorphism(g1: Graph, g2: Graph) -> Optional[tuple[int, ...]]:
    """A vertex bijection mapping g1 onto g2, or None.

    The returned tuple maps vertex v of g1 to ``result[v]`` in g2.
    """
    n = g1.n
    if n != g2.n or g1.edge_count != g2.edge_count:
        return None
    d1, d2 = distances(g1), distances(g2)
    # vertex v of g2 is vertex n + v of the union
    adjacency = g1.adjacency + tuple(tuple(n + w for w in nbrs) for nbrs in g2.adjacency)
    rows1, rows2 = d1.dist.tolist(), d2.dist.tolist()

    def refine(signatures: list) -> Optional[list[int]]:
        """The stable refinement of the union coloured by ``signatures``, or
        None as soon as its two halves hold different colour counts."""
        while True:
            ids = {s: i for i, s in enumerate(sorted(set(signatures)))}
            colors = [ids[s] for s in signatures]
            if Counter(colors[:n]) != Counter(colors[n:]):
                return None
            signatures = [
                (c, tuple(sorted(colors[w] for w in nbrs))) for c, nbrs in zip(colors, adjacency)
            ]
            if len(set(signatures)) == len(ids):
                return colors

    def search(colors: list[int]) -> Optional[tuple[int, ...]]:
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)  # the g1 half of a cell comes first
        open_cells = [cell for cell in cells.values() if len(cell) > 2]
        if not open_cells:
            mapping = [0] * n
            for v, u in cells.values():
                mapping[v] = u - n
            return tuple(mapping) if verify_isomorphism(g1, g2, tuple(mapping)) else None
        cell = min(open_cells, key=len)
        v = cell[0]
        for u in cell[len(cell) // 2 :]:
            split = refine(list(zip(colors, rows1[v] + rows2[u - n])))
            found = None if split is None else search(split)
            if found is not None:
                return found
        return None

    profiles = np.sort(d1.dist, axis=1).tolist() + np.sort(d2.dist, axis=1).tolist()
    colors = refine([tuple(row) for row in profiles])
    return None if colors is None else search(colors)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None


def verify_isomorphism(g1: Graph, g2: Graph, mapping: tuple[int, ...]) -> bool:
    if len(mapping) != g1.n or sorted(mapping) != list(range(g2.n)):
        return False
    for u, v in g1.edges():
        if not g2.has_edge(mapping[u], mapping[v]):
            return False
    return g1.edge_count == g2.edge_count
