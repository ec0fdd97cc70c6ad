"""Reproduction of the three analysis tables from scratch, with golden
values diffed cell by cell.

A table is its columns plus its rows: a column recomputes its cell from
the row graph's :class:`GraphAnalysis` and compares it with the row's golden
value, exactly or within :data:`SPECTRAL_TOL`.  A mismatch anywhere is a
hard failure, which the CLI turns into exit code 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, NamedTuple, Optional

from .analysis import GraphAnalysis
from .families import (
    cocktail_party,
    demi_cube,
    doob,
    gosset,
    hamming,
    hypercube,
    johnson,
    kneser,
    lattice,
    schlafli,
    shrikhande,
)
from .fixtures import load_fixture
from .graphs import (
    Graph,
    build_graph,
    distances,
    induced_subgraph,
    intersection_array,
    is_strongly_regular,
)
from .isomorphism import automorphism_orbits, find_isomorphism
from .report import frac_str

SPECTRAL_TOL = 1e-9


@dataclass(frozen=True)
class CellDiff:
    row: str
    column: str
    want: str
    got: str


def exact(want: Any, got: Any) -> tuple[str, bool]:
    """The cell text and whether it matches: texts must be equal."""
    return str(got), str(want) == str(got)


def spectral(want: Fraction, got: float) -> tuple[str, bool]:
    """The cell text and whether it matches: a float within SPECTRAL_TOL of
    the exact golden value shows as that value."""
    if abs(got - float(want)) <= SPECTRAL_TOL:
        return frac_str(want), True
    return repr(got), False


class Column(NamedTuple):
    header: str
    get: Callable[[GraphAnalysis, Any], Any]  # (context, golden value) -> value
    compare: Callable[[Any, Any], tuple[str, bool]] = exact


class Row(NamedTuple):
    name: str
    build: Callable[[], Graph]
    golden: tuple  # one value per column


class Table(NamedTuple):
    columns: tuple[Column, ...]
    rows: tuple[Row, ...]
    # verdicts without a column: yields (column, want, got) per failure
    check: Optional[Callable[[GraphAnalysis, Row], Iterator[tuple[str, str, str]]]] = None


@dataclass(frozen=True)
class Sphere:
    """Golden S1(x): every induced 1-sphere is isomorphic to ``build()``."""

    tag: str
    build: Callable[[], Graph]

    def __str__(self) -> str:
        return self.tag


def _sphere_cell(ctx: GraphAnalysis, want: Sphere) -> str:
    """``want``'s tag if every 1-sphere matches it, else the first that does not.

    S1 is matched at one vertex r per automorphism orbit, its smallest: a
    verified automorphism taking r to x maps N(r) onto N(x), so S1(x) and
    S1(r) are isomorphic.  A failing vertex fails with its whole orbit, so
    the first failing representative is the first failing vertex.
    """
    g = ctx.g
    reference = want.build()
    for x in sorted(set(automorphism_orbits(g)[0])):
        sphere, _ = induced_subgraph(g, g.adjacency[x])
        if find_isomorphism(sphere, reference) is None:
            return f"S1({x}) is not {want}"
    return want.tag


def _mu_cell(ctx: GraphAnalysis, _: Any) -> str:
    verdict = ctx.mu_graphs
    if verdict.holds and len(verdict.m_values) == 1:
        return f"CP({verdict.m_values[0][0]})"
    return f"not uniform: {verdict.m_values}"


def _srg_cell(ctx: GraphAnalysis, _: Any) -> Optional[tuple[int, int, int, int]]:
    params = is_strongly_regular(ctx.g)
    return (params.nu, params.k, params.lam, params.mu) if params else None


VERTICES = Column("|V|", lambda ctx, _: ctx.g.n)
THETA1 = Column("theta1", lambda ctx, _: ctx.spectrum.theta1, spectral)
LAMBDA1 = Column("lambda1", lambda ctx, _: ctx.spectrum.lambda1, spectral)
INF_KAPPA = Column("inf_kappa", lambda ctx, _: ctx.bm.inf_edge_kappa)


# ---------------------------------------------------------------------------
# Table 1: the five families

_TABLE1 = Table(
    columns=(
        Column("(D,L)", lambda ctx, _: (ctx.deg, distances(ctx.g).diameter)),
        VERTICES,
        Column("dim", lambda ctx, _: ctx.spectrum.lambda1_multiplicity),
        Column("mu-graph", _mu_cell),
        Column("S1(x)", _sphere_cell),
        Column("array", lambda ctx, _: intersection_array(ctx.g)),
    ),
    rows=(
        *(
            Row(f"Q^{n}", lambda n=n: hypercube(n), (
                (n, n), 2**n, n, "CP(1)",
                Sphere(f"{n} points", lambda n=n: build_graph(n, [])),
                (tuple(range(n, 0, -1)), tuple(range(1, n + 1))),
            ))
            for n in range(2, 7)
        ),
        *(
            Row(f"CP({n})", lambda n=n: cocktail_party(n), (
                (2 * n - 2, 2), 2 * n, n, f"CP({n - 1})",
                Sphere(f"CP({n - 1})", lambda n=n: cocktail_party(n - 1)),
                ((2 * n - 2, 1), (1, 2 * n - 2)),
            ))
            for n in range(3, 6)
        ),
        Row("J(6,3)", lambda: johnson(6, 3), (
            (9, 3), 20, 5, "CP(2)", Sphere("K3 x K3", lambda: lattice(3)),
            ((9, 4, 1), (1, 4, 9)),
        )),
        Row("Q^6_(2)", lambda: demi_cube(6), (
            (15, 3), 32, 6, "CP(3)", Sphere("J(6,2)", lambda: johnson(6, 2)),
            ((15, 6, 1), (1, 6, 15)),
        )),
        Row("Gosset", gosset, (
            (27, 3), 56, 7, "CP(5)", Sphere("Schlafli", schlafli),
            ((27, 10, 1), (1, 10, 27)),
        )),
    ),
)


# ---------------------------------------------------------------------------
# Table 2: strongly regular graphs with smallest adjacency eigenvalue -2

F = Fraction  # golden curvatures and eigenvalues are exact

_TABLE2 = Table(
    columns=(Column("srg", _srg_cell), THETA1, LAMBDA1, INF_KAPPA),
    rows=(
        Row("CP(3)", lambda: cocktail_party(3), ((6, 4, 2, 4), F(0), F(1), F(1))),
        Row("K3 x K3", lambda: lattice(3), ((9, 4, 1, 2), F(1), F(3, 4), F(3, 4))),
        Row("Shrikhande", shrikhande, ((16, 6, 2, 2), F(2), F(2, 3), F(1, 3))),
        Row("J(5,2)", lambda: johnson(5, 2), ((10, 6, 3, 4), F(1), F(5, 6), F(5, 6))),
        Row("Chang1", lambda: load_fixture("chang1"), ((28, 12, 6, 4), F(4), F(2, 3), F(1, 3))),
        Row("Chang2", lambda: load_fixture("chang2"), ((28, 12, 6, 4), F(4), F(2, 3), F(1, 3))),
        Row("Chang3", lambda: load_fixture("chang3"), ((28, 12, 6, 4), F(4), F(2, 3), F(1, 3))),
        Row("Petersen", lambda: kneser(5, 2), ((10, 3, 0, 1), F(1), F(2, 3), F(0))),
        Row("Q^5_(2)", lambda: demi_cube(5), ((16, 10, 6, 6), F(2), F(4, 5), F(4, 5))),
        Row("Schlafli", schlafli, ((27, 16, 10, 8), F(4), F(3, 4), F(3, 4))),
    ),
)


# ---------------------------------------------------------------------------
# Table 3: distance-regular graphs with second largest eigenvalue b1 - 1


def _theta1_is_b1_minus_1(ctx: GraphAnalysis, row: Row) -> Iterator[tuple[str, str, str]]:
    """theta1 must equal b1 - 1 for these distance-regular rows."""
    arr = intersection_array(ctx.g)
    if arr is None:
        yield "distance-regular", "yes", "no"
    elif row.name != "Kneser(7,2)":  # exempt: see its row
        b1 = arr[0][1]
        text, ok = spectral(b1 - 1, ctx.spectrum.theta1)
        if not ok:
            yield "theta1=b1-1", str(b1 - 1), text


_TABLE3 = Table(
    columns=(
        VERTICES,
        Column("D", lambda ctx, _: ctx.deg),
        Column("L", lambda ctx, _: distances(ctx.g).diameter),
        THETA1,
        LAMBDA1,
        INF_KAPPA,
    ),
    rows=(
        Row("(K3)^2", lambda: hamming(3, 2), (9, 4, 2, F(1), F(3, 4), F(3, 4))),
        Row("(K4)^2", lambda: hamming(4, 2), (16, 6, 2, F(2), F(2, 3), F(2, 3))),
        Row("Doob(1,1)", lambda: doob(1, 1), (64, 9, 3, F(5), F(4, 9), F(2, 9))),
        # The Kneser graph is srg(21,10,3,6), so theta1 = (-3+5)/2 = 1
        # exactly and lambda1 = 9/10; b1 - 1 = 5 differs from theta1, so
        # the b1 - 1 identity of the remaining rows does not apply here.
        Row("Kneser(7,2)", lambda: kneser(7, 2), (21, 10, 2, F(1), F(9, 10), F(1, 2))),
        Row("Conway-Smith", lambda: load_fixture("conway_smith"),
            (63, 10, 4, F(5), F(1, 2), F(-1, 10))),
        Row("Hall", lambda: load_fixture("hall"), (65, 10, 3, F(5), F(1, 2), F(-1, 10))),
        Row("J(6,3)", lambda: johnson(6, 3), (20, 9, 3, F(3), F(2, 3), F(2, 3))),
        Row("Q^5_(2)", lambda: demi_cube(5), (16, 10, 2, F(2), F(4, 5), F(4, 5))),
        Row("Gosset", gosset, (56, 27, 3, F(9), F(2, 3), F(2, 3))),
    ),
    check=_theta1_is_b1_minus_1,
)

TABLES = {1: _TABLE1, 2: _TABLE2, 3: _TABLE3}


def compute_row(table: Table, row: Row) -> tuple[dict[str, str], list[CellDiff]]:
    """One row's cells, recomputed from its graph, and its mismatches."""
    ctx = GraphAnalysis(row.build())
    cells = {"graph": row.name}
    diffs = []
    for column, want in zip(table.columns, row.golden, strict=True):
        text, ok = column.compare(want, column.get(ctx, want))
        cells[column.header] = text
        if not ok:
            diffs.append(CellDiff(row.name, column.header, str(want), text))
    if table.check is not None:
        diffs += [CellDiff(row.name, *fields) for fields in table.check(ctx, row)]
    return cells, diffs


def compute_table(table_id: int) -> tuple[list[dict[str, str]], list[CellDiff]]:
    """Compute a table row by row, in the order its rows are listed."""
    table = TABLES[table_id]
    pieces = [compute_row(table, row) for row in table.rows]
    return [cells for cells, _ in pieces], [diff for _, diffs in pieces for diff in diffs]


def render_table(rows: list[dict[str, str]]) -> str:
    if not rows:
        return ""
    columns = list(rows[0].keys())
    widths = {c: max(len(c), *(len(r.get(c, "")) for r in rows)) for c in columns}
    lines = [" | ".join(c.ljust(widths[c]) for c in columns)]
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for r in rows:
        lines.append(" | ".join(r.get(c, "").ljust(widths[c]) for c in columns))
    return "\n".join(lines)
