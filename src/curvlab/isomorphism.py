"""Graph isomorphism and automorphism orbits by individualize-and-refine.

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

:func:`automorphism_orbits` runs the same search from g to g, starting from
an individualized pair (r -> v), which finds an automorphism mapping r to v
or proves that none exists.  It takes the vertices in order; each one that no
earlier orbit holds is a representative r.  The orbits are kept in a
union-find closed under every automorphism found so far, and r is searched
against a vertex v only when v is still outside r's orbit and shares r's
colour in the first stable colouring, which every automorphism preserves.
So a graph whose first colouring is discrete makes no search at all, and a
vertex-transitive one makes a search only for a vertex that the group
generated so far does not reach.  There is no Schreier-Sims and no canonical
labelling.  Callers use the orbits to skip work that an automorphism maps
onto work already done, so an automorphism the search got wrong would give a
wrong verdict rather than a slow one: each automorphism is kept only after
:func:`verify_isomorphism` accepts it.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from .graphs import Graph, distances


class _Union:
    """The disjoint union of g1 and g2, vertex v of g2 being vertex n + v,
    with the distance rows of both halves and the first stable colouring
    (None when its halves already hold different colour counts)."""

    def __init__(self, g1: Graph, g2: Graph) -> None:
        n = self.n = g1.n
        self.g1, self.g2 = g1, g2
        d1, d2 = distances(g1), distances(g2)
        self.adjacency = g1.adjacency + tuple(tuple(n + w for w in nbrs) for nbrs in g2.adjacency)
        self.rows1, self.rows2 = d1.dist.tolist(), d2.dist.tolist()
        profiles = np.sort(d1.dist, axis=1).tolist() + np.sort(d2.dist, axis=1).tolist()
        self.colors = self.refine([tuple(row) for row in profiles])

    def refine(self, signatures: list) -> Optional[list[int]]:
        """The stable refinement of the union coloured by ``signatures``, or
        None as soon as its two halves hold different colour counts."""
        n = self.n
        while True:
            ids = {s: i for i, s in enumerate(sorted(set(signatures)))}
            colors = [ids[s] for s in signatures]
            if Counter(colors[:n]) != Counter(colors[n:]):
                return None
            signatures = [
                (c, tuple(sorted(colors[w] for w in nbrs)))
                for c, nbrs in zip(colors, self.adjacency)
            ]
            if len(set(signatures)) == len(ids):
                return colors


def _search(u: _Union, colors: list[int]) -> Optional[tuple[int, ...]]:
    """A verified isomorphism g1 -> g2 that keeps the stable ``colors``, or None."""
    n = u.n
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)  # the g1 half of a cell comes first
    open_cells = [cell for cell in cells.values() if len(cell) > 2]
    if not open_cells:
        mapping = [0] * n
        for v, w in cells.values():
            mapping[v] = w - n
        return tuple(mapping) if verify_isomorphism(u.g1, u.g2, tuple(mapping)) else None
    cell = min(open_cells, key=len)
    x = cell[0]
    for w in cell[len(cell) // 2 :]:
        found = _search_from(u, colors, x, w - n)
        if found is not None:
            return found
    return None


def _search_from(u: _Union, colors: list[int], x: int, v: int) -> Optional[tuple[int, ...]]:
    """A verified isomorphism g1 -> g2 that keeps ``colors`` and maps x to v, or None."""
    split = u.refine(list(zip(colors, u.rows1[x] + u.rows2[v])))
    return None if split is None else _search(u, split)


def find_isomorphism(g1: Graph, g2: Graph) -> Optional[tuple[int, ...]]:
    """A vertex bijection mapping g1 onto g2, or None.

    The returned tuple maps vertex v of g1 to ``result[v]`` in g2.
    """
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    u = _Union(g1, g2)
    return None if u.colors is None else _search(u, u.colors)


def automorphism_orbits(g: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The vertex orbits of g's automorphism group, and the automorphisms kept.

    Returns ``(representatives, automorphisms)``: ``representatives[x]`` is
    the smallest vertex of x's orbit, and ``automorphisms`` holds the
    automorphisms the search found, in the order found, each verified by
    :func:`verify_isomorphism`.  The group they generate has exactly these
    orbits.
    """
    u = _Union(g, g)
    colors = u.colors
    parent = list(range(g.n))  # union-find; each root is the smallest vertex of its set

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    automorphisms: list[tuple[int, ...]] = []
    for r in range(g.n):
        if root(r) != r:
            continue  # an earlier representative's orbit holds r
        missed: list[int] = []  # vertices that no automorphism maps r to
        for v in range(r + 1, g.n):
            # root(v) == r: v is reached; root(v) < r: v lies in a finished
            # orbit, which does not hold r
            if colors[v] != colors[r] or root(v) <= r:
                continue
            # an automorphism found so far maps v to a missed vertex w, so
            # one taking r to v would take r to w: the search would fail
            if any(root(w) == root(v) for w in missed):
                continue
            found = _search_from(u, colors, r, v)
            if found is None:
                missed.append(v)
                continue
            automorphisms.append(found)
            for x, y in enumerate(found):
                a, b = root(x), root(y)
                parent[max(a, b)] = min(a, b)
    return tuple(root(x) for x in range(g.n)), tuple(automorphisms)


def verify_isomorphism(g1: Graph, g2: Graph, mapping: tuple[int, ...]) -> bool:
    if len(mapping) != g1.n or sorted(mapping) != list(range(g2.n)):
        return False
    for u, v in g1.edges():
        if not g2.has_edge(mapping[u], mapping[v]):
            return False
    return g1.edge_count == g2.edge_count
