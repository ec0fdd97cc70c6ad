#!/usr/bin/env python3
"""Build the bundled graph6 fixtures: the three Chang graphs, the
Conway-Smith graph and the Hall graph.

Constructions, each verified against published invariants before writing:

* Chang graphs: Seidel switching of the triangular graph T(8) = J(8,2)
  with respect to the edge sets of (a) a perfect matching 4K2, (b) an
  8-cycle, (c) a disjoint triangle plus pentagon in K8.  Each result is
  srg(28, 12, 6, 4) and not isomorphic to T(8) or to each other.

* Conway-Smith graph: the 63-vertex antipodal 3-cover of the Kneser graph
  K(7,2), realized by a Z3 voltage assignment that is balanced on every
  triangle but not a coboundary.  The cover is connected and locally
  Petersen; by Hall's classification of connected locally Petersen graphs
  it is the Conway-Smith graph.

* Hall graph: the 65-vertex orbital graph of PSL(2,25) acting on the
  cosets of a PGL(2,5) subgroup, using the self-paired suborbit of size
  10.  Connected and locally Petersen on 65 vertices, hence the Hall graph.

Run from the repository root:  python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curvlab.graph6 import encode_graph6
from curvlab.graphs import (
    Graph,
    build_graph,
    distances,
    induced_subgraph,
    intersection_array,
    is_strongly_regular,
)
from curvlab.families import johnson, kneser
from curvlab.isomorphism import find_isomorphism
from curvlab.spectral import spectral_summary
from curvlab.transport import kappas

OUT = Path(__file__).resolve().parent.parent / "src" / "curvlab" / "fixtures"


# ---------------------------------------------------------------------------
# Chang graphs


def seidel_switch(g: Graph, subset: set[int]) -> Graph:
    edges = []
    nbrs = [g.neighbor_set(v) for v in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            adjacent = v in nbrs[u]
            if (u in subset) != (v in subset):
                adjacent = not adjacent
            if adjacent:
                edges.append((u, v))
    return build_graph(g.n, edges)


def chang_graphs() -> list[Graph]:
    t8 = johnson(8, 2)
    # vertex of T(8) <-> 2-subset of {1..8}; label index lookup
    pairs = list(itertools.combinations(range(1, 9), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def edge_set(edge_list: list[tuple[int, int]]) -> set[int]:
        return {index[tuple(sorted(e))] for e in edge_list}

    matching = edge_set([(1, 2), (3, 4), (5, 6), (7, 8)])
    octagon = edge_set([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1)])
    tri_pent = edge_set([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
    out = []
    for subset in (matching, octagon, tri_pent):
        out.append(seidel_switch(t8, subset))
    return out


def verify_chang(graphs: list[Graph]) -> None:
    t8 = johnson(8, 2)
    for i, g in enumerate(graphs):
        params = is_strongly_regular(g)
        assert params is not None and (params.nu, params.k, params.lam, params.mu) == (
            28,
            12,
            6,
            4,
        ), f"chang{i + 1}: srg params {params}"
        assert find_isomorphism(g, t8) is None, f"chang{i + 1} is isomorphic to T(8)"
        summ = spectral_summary(g)
        assert abs(summ.theta1 - 4.0) < 1e-9
        assert abs(summ.lambda1 - 2.0 / 3.0) < 1e-9
        inf_k = min(value.value for value in kappas(g, g.edges()).values())
        assert str(inf_k) == "1/3", f"chang{i + 1}: inf kappa {inf_k}"
    for i in range(3):
        for j in range(i + 1, 3):
            assert find_isomorphism(graphs[i], graphs[j]) is None, f"chang{i+1} ~ chang{j+1}"
    print("chang graphs verified: srg(28,12,6,4), theta1=4, lambda1=2/3, inf kappa=1/3")


# ---------------------------------------------------------------------------
# Conway-Smith graph


def conway_smith() -> Graph:
    base = kneser(7, 2)
    n = base.n
    edges = base.edges()
    eindex = {e: i for i, e in enumerate(edges)}
    ne = len(edges)

    def evar(u: int, v: int) -> tuple[int, int]:
        """(variable index, sign) for the oriented edge u -> v."""
        if u < v:
            return eindex[(u, v)], 1
        return eindex[(v, u)], -1

    # triangles of K(7,2): triples of pairwise adjacent vertices
    triangles = []
    for u in range(n):
        for v in base.adjacency[u]:
            if v <= u:
                continue
            for w in base.adjacency[u]:
                if w <= v or not base.has_edge(v, w):
                    continue
                triangles.append((u, v, w))
    # GF(3) system: phi(u,v) + phi(v,w) + phi(w,u) = 0 per triangle
    rows = []
    for u, v, w in triangles:
        row = np.zeros(ne, dtype=np.int64)
        for a, b in ((u, v), (v, w), (w, u)):
            idx, sign = evar(a, b)
            row[idx] = (row[idx] + sign) % 3
        rows.append(row)
    mat = np.array(rows, dtype=np.int64) % 3

    # nullspace of mat over GF(3)
    m = mat.copy()
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if m[rr, c] % 3 != 0:
                piv = rr
                break
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, 3)
        m[r] = (m[r] * inv) % 3
        for rr in range(nrows):
            if rr != r and m[rr, c] % 3 != 0:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % 3
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivots]
    print(f"conway-smith: {len(triangles)} triangles, rank {r}, "
          f"{len(free_cols)} free vars (coboundary dim is {n - 1})")

    def nullspace_vector(free_col: int) -> np.ndarray:
        vec = np.zeros(ncols, dtype=np.int64)
        vec[free_col] = 1
        for rr, pc in enumerate(pivots):
            vec[pc] = (-m[rr, free_col]) % 3
        return vec % 3

    def is_coboundary(phi: np.ndarray) -> bool:
        # phi(u,v) = g(v) - g(u)? try to integrate over a spanning tree
        g_val = {0: 0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in base.adjacency[u]:
                idx, sign = evar(u, v)
                val = (g_val[u] + sign * phi[idx]) % 3
                if v not in g_val:
                    g_val[v] = val
                    stack.append(v)
                elif g_val[v] != val:
                    return False
        return True

    phi = None
    for c in free_cols:
        cand = nullspace_vector(c)
        if not is_coboundary(cand):
            phi = cand
            break
    assert phi is not None, "no non-coboundary triangle-balanced voltage found"

    cover_edges = []
    for (u, v), idx in eindex.items():
        volt = int(phi[idx]) % 3
        for i in range(3):
            cover_edges.append((3 * u + i, 3 * v + (i + volt) % 3))
    labels = tuple(
        f"{base.labels[v]}:{i}" for v in range(n) for i in range(3)
    )
    return build_graph(3 * n, cover_edges, labels=labels)


# ---------------------------------------------------------------------------
# Hall graph


class _F25:
    """Arithmetic in GF(25) = GF(5)[t]/(t^2 - 2); elements encoded a + 5b."""

    @staticmethod
    def add(x: int, y: int) -> int:
        return (x % 5 + y % 5) % 5 + 5 * ((x // 5 + y // 5) % 5)

    @staticmethod
    def neg(x: int) -> int:
        return (-x % 5) % 5 + 5 * ((-(x // 5)) % 5)

    @staticmethod
    def mul(x: int, y: int) -> int:
        a, b = x % 5, x // 5
        c, d = y % 5, y // 5
        # (a + bt)(c + dt) = ac + 2bd + (ad + bc) t
        return (a * c + 2 * b * d) % 5 + 5 * ((a * d + b * c) % 5)

    @staticmethod
    def inv(x: int) -> int:
        for y in range(25):
            if _F25.mul(x, y) == 1:
                return y
        raise ZeroDivisionError(x)


def _moebius_perm(a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    """Permutation of PG(1,25): points 0..24 are field elements, 25 is infinity."""
    INF = 25
    out = []
    for p in range(26):
        if p == INF:
            if c == 0:
                out.append(INF)
            else:
                out.append(_F25.mul(a, _F25.inv(c)))
            continue
        num = _F25.add(_F25.mul(a, p), b)
        den = _F25.add(_F25.mul(c, p), d)
        if den == 0:
            out.append(INF)
        else:
            out.append(_F25.mul(num, _F25.inv(den)))
    return tuple(out)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(q)))


def _closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    ident = tuple(range(len(gens[0])))
    group = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = _compose(s, g)
                if h not in group:
                    group.add(h)
                    new.append(h)
        frontier = new
    return group


def hall_graph() -> Graph:
    # generator of GF(25)^*: find element of multiplicative order 24
    gen = next(
        x for x in range(2, 25)
        if all(_mpow(x, k) != 1 for k in (8, 12)) and _mpow(x, 24) == 1
    )
    square = _F25.mul(gen, gen)
    g_gens = [
        _moebius_perm(1, 1, 0, 1),          # z -> z + 1
        _moebius_perm(square, 0, 0, 1),     # z -> g^2 z
        _moebius_perm(0, _F25.neg(1), 1, 0),  # z -> -1/z
    ]
    G = _closure(g_gens)
    assert len(G) == 7800, f"|PSL(2,25)| = {len(G)}"
    # H = PGL(2,5) on the subline: generated by z -> z+1, z -> 2z, z -> 1/z
    h_gens = [
        _moebius_perm(1, 1, 0, 1),
        _moebius_perm(2, 0, 0, 1),
        _moebius_perm(0, 1, 1, 0),
    ]
    H = _closure(h_gens)
    assert len(H) == 120, f"|PGL(2,5)| = {len(H)}"
    assert H <= G

    hlist = sorted(H)
    # cosets gH, canonical representative = min of the coset
    coset_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    reps: list[tuple[int, ...]] = []
    for g in G:
        if g in coset_of:
            continue
        coset = {_compose(g, h) for h in hlist}
        rep = min(coset)
        reps.append(rep)
        for el in coset:
            coset_of[el] = rep
    reps.sort()
    rep_index = {r: i for i, r in enumerate(reps)}
    assert len(reps) == 65

    inv_cache = {g: tuple(sorted(range(26), key=g.__getitem__)) for g in reps}

    def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * 26
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    # suborbits of H on cosets: orbit of coset gH under left mult by H
    base = reps[rep_index[coset_of[min(H)]]]
    suborbit_id = {}
    for rep in reps:
        if rep in suborbit_id:
            continue
        orbit = {coset_of[_compose(h, rep)] for h in hlist}
        for r in orbit:
            suborbit_id[r] = rep
    sizes = {}
    for rep, sid in suborbit_id.items():
        sizes.setdefault(sid, 0)
        sizes[sid] += 1
    print("hall: suborbit sizes", sorted(sizes.values()))

    # adjacency via the suborbit of size 10: g1 H ~ g2 H iff (g1^-1 g2) H
    # lies in that suborbit
    target_ids = [sid for sid, sz in sizes.items() if sz == 10]
    assert target_ids, "no suborbit of size 10"
    for target in target_ids:
        members = {r for r, sid in suborbit_id.items() if sid == target}
        edges = set()
        ok = True
        for i, r1 in enumerate(reps):
            r1_inv = inverse(r1)
            deg = 0
            for j, r2 in enumerate(reps):
                if i == j:
                    continue
                if coset_of[_compose(r1_inv, r2)] in members:
                    if j > i:
                        edges.add((i, j))
                    deg += 1
            if deg != 10:
                ok = False
                break
        if ok:
            return build_graph(65, sorted(edges))
    raise AssertionError("no symmetric valency-10 orbital found")


def _mpow(x: int, k: int) -> int:
    out = 1
    for _ in range(k):
        out = _F25.mul(out, x)
    return out


# ---------------------------------------------------------------------------
# shared verification


def verify_locally_petersen(g: Graph, name: str, want_n: int, want_array) -> None:
    assert g.n == want_n, f"{name}: {g.n} vertices"
    assert g.is_regular() == 10, f"{name}: not 10-regular"
    assert distances(g).is_connected, f"{name}: disconnected"
    petersen = kneser(5, 2)
    for x in range(g.n):
        sphere, _ = induced_subgraph(g, g.adjacency[x])
        found = find_isomorphism(sphere, petersen)
        assert found is not None, f"{name}: not locally Petersen at {x}"
    arr = intersection_array(g)
    assert arr == want_array, f"{name}: intersection array {arr}"
    summ = spectral_summary(g)
    assert abs(summ.theta1 - 5.0) < 1e-9, f"{name}: theta1 {summ.theta1}"
    assert abs(summ.lambda1 - 0.5) < 1e-9, f"{name}: lambda1 {summ.lambda1}"
    inf_k = min(value.value for value in kappas(g, g.edges()).values())
    assert str(inf_k) == "-1/10", f"{name}: inf kappa {inf_k}"
    print(f"{name} verified: {want_n} vertices, locally Petersen, ia {arr}, "
          f"theta1=5, lambda1=1/2, inf kappa=-1/10")


def build_fixtures() -> dict[str, Graph]:
    """Every bundled fixture keyed by its file stem, each one verified."""
    changs = chang_graphs()
    verify_chang(changs)
    cs = conway_smith()
    verify_locally_petersen(cs, "conway-smith", 63, ((10, 6, 4, 1), (1, 2, 6, 10)))
    hall = hall_graph()
    verify_locally_petersen(hall, "hall", 65, ((10, 6, 4), (1, 2, 5)))
    return {**{f"chang{i + 1}": g for i, g in enumerate(changs)}, "conway_smith": cs, "hall": hall}


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, g in build_fixtures().items():
        (OUT / f"{name}.g6").write_text(encode_graph6(g) + "\n")
    print("fixtures written to", OUT)


if __name__ == "__main__":
    main()
