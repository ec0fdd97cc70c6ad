"""Graph isomorphism and automorphism orbits by individualize-and-refine.

The search colours the disjoint union of the two graphs, so that a colour
means the same thing in both halves.  Every vertex starts with its distance
profile, the sorted row of its distance oracle, and colours are refined by
neighbour-colour multisets until the colouring is stable.  A refinement
round is one gather and one row sort: an index array holds, in row v, v
itself and then v's neighbours, ragged rows padded with an index whose
colour is -1; reading the colours through it and sorting each row after
its first entry gives v's colour followed by its neighbours' colours in
order, the padding first, so equal rows mean equal colours, degrees and
neighbour-colour multisets.  Colour ids number the distinct rows by first
appearance of their bytes, in one dict shared by both halves, so they agree
between the halves.  When the halves hold different colour counts, no
isomorphism extends the choices made so far.  Otherwise one g1 vertex of a
smallest open class is individualized against each g2 vertex of that class
in turn: every class is split by distance to the pair, and refinement runs
again.  The search compares colours only for equality and walks the cells
in vertex order, so it depends on the partitions alone, not on how their
colours are numbered.  This is the search of McKay-Piperno, *Practical
graph isomorphism II* (arXiv 1301.1493), without the canonical labelling.
A discrete colouring pairs the vertices, and the pairing is returned only
once it is verified to be an isomorphism.

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

from typing import Optional

import numpy as np

from .graphs import Graph, distances


class _Union:
    """The disjoint union of g1 and g2, vertex v of g2 being vertex n + v,
    with the distance matrices of both halves and the first stable colouring
    (None when its halves already hold different colour counts)."""

    def __init__(self, g1: Graph, g2: Graph) -> None:
        n = self.n = g1.n
        self.g1, self.g2 = g1, g2
        self.dist1, self.dist2 = distances(g1).dist, distances(g2).dist
        # row v of the gather: v itself, then its neighbours, padded with 2n,
        # the index of the colour -1
        degrees = np.array(g1.degrees + g2.degrees, dtype=np.intp)
        self.gather = np.full((2 * n, 1 + degrees.max(initial=0)), 2 * n, dtype=np.intp)
        self.gather[:, 0] = np.arange(2 * n)
        self.gather[:, 1:][np.arange(self.gather.shape[1] - 1) < degrees[:, None]] = np.fromiter(
            (offset + w for offset, g in ((0, g1), (n, g2)) for nbrs in g.adjacency for w in nbrs),
            dtype=np.intp,
            count=int(degrees.sum()),
        )
        profiles = np.concatenate((self.dist1, self.dist2))  # sorted in place, once if g1 is g2
        if g2 is g1:
            profiles[:n].sort(axis=1)
            profiles[n:] = profiles[:n]
        else:
            profiles.sort(axis=1)
        self.colors = self.refine(profiles)

    def refine(self, signatures: np.ndarray) -> Optional[np.ndarray]:
        """The stable refinement of the union coloured by the rows of the
        C-contiguous int32 array ``signatures``, as an int32 colour array,
        or None as soon as its two halves hold different colour counts."""
        n = self.n
        colors = np.full(2 * n + 1, -1, dtype=np.int32)  # entry 2n colours the padding
        classes = -1
        while True:
            ids: dict[bytes, int] = {}
            row = np.dtype((np.void, signatures.itemsize * signatures.shape[1]))
            keys = signatures.view(row).ravel().tolist()  # the bytes of each row
            colors[:-1] = [ids.setdefault(key, len(ids)) for key in keys]
            if len(ids) == classes:
                return colors[:-1]
            classes = len(ids)
            counts = [np.bincount(half, minlength=classes) for half in (colors[:n], colors[n:-1])]
            if not np.array_equal(*counts):
                return None
            signatures = colors[self.gather]
            signatures[:, 1:].sort(axis=1)


def _search(u: _Union, colors: np.ndarray) -> Optional[tuple[int, ...]]:
    """A verified isomorphism g1 -> g2 that keeps the stable ``colors``, or None."""
    n = u.n
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors.tolist()):
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


def _search_from(u: _Union, colors: np.ndarray, x: int, v: int) -> Optional[tuple[int, ...]]:
    """A verified isomorphism g1 -> g2 that keeps ``colors`` and maps x to v, or None.

    Every vertex is individualized by the row [colour, distance to x or v]."""
    split = u.refine(np.column_stack((colors, np.concatenate((u.dist1[x], u.dist2[v])))))
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
    first = colors.tolist()
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
            if first[v] != first[r] or root(v) <= r:
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
