"""Reproduction of the three analysis tables from scratch, with golden
values diffed cell by cell.

Every cell is recomputed from the generated graph (or bundled fixture); a
mismatch anywhere is a hard failure, which the CLI turns into exit code 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

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
    distances,
    induced_subgraph,
    intersection_array,
    is_strongly_regular,
)
from .isomorphism import are_isomorphic
from .parallel import map_shared
from .report import frac_str

SPECTRAL_TOL = 1e-9


@dataclass(frozen=True)
class CellDiff:
    row: str
    column: str
    want: str
    got: str


def _check_sphere_structure(g: Graph, tag: str) -> tuple[bool, str]:
    """Does every induced 1-sphere match the named structure?"""
    reference: Optional[Graph]
    if tag.endswith(" points"):
        count = int(tag.split()[0])
        reference = None
    elif tag.startswith("CP("):
        reference = cocktail_party(int(tag[3:-1]))
    elif tag == "K3 x K3":
        reference = lattice(3)
    elif tag == "J(6,2)":
        reference = johnson(6, 2)
    elif tag == "Schlafli":
        reference = schlafli()
    else:
        raise ValueError(f"unknown sphere tag {tag!r}")
    for x in range(g.n):
        sphere, _ = induced_subgraph(g, g.adjacency[x])
        if reference is None:
            if sphere.n != count or sphere.edge_count != 0:
                return False, f"S1({x}) has {sphere.n} vertices, {sphere.edge_count} edges"
        else:
            if not are_isomorphic(sphere, reference):
                return False, f"S1({x}) is not {tag}"
    return True, tag


# ---------------------------------------------------------------------------
# Table 1: the five families


def _table1_rows() -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for n in range(2, 7):
        rows.append(
            {
                "graph": f"Q^{n}",
                "builder": lambda n=n: hypercube(n),
                "DL": (n, n),
                "V": 2**n,
                "dim": n,
                "mu": 1,
                "sphere": f"{n} points",
                "array": (
                    tuple(n - j for j in range(n)),
                    tuple(j for j in range(1, n + 1)),
                ),
            }
        )
    for n in range(3, 6):
        rows.append(
            {
                "graph": f"CP({n})",
                "builder": lambda n=n: cocktail_party(n),
                "DL": (2 * n - 2, 2),
                "V": 2 * n,
                "dim": n,
                "mu": n - 1,
                "sphere": f"CP({n - 1})",
                "array": ((2 * n - 2, 1), (1, 2 * n - 2)),
            }
        )
    rows.append(
        {
            "graph": "J(6,3)",
            "builder": lambda: johnson(6, 3),
            "DL": (9, 3),
            "V": 20,
            "dim": 5,
            "mu": 2,
            "sphere": "K3 x K3",
            "array": ((9, 4, 1), (1, 4, 9)),
        }
    )
    rows.append(
        {
            "graph": "Q^6_(2)",
            "builder": lambda: demi_cube(6),
            "DL": (15, 3),
            "V": 32,
            "dim": 6,
            "mu": 3,
            "sphere": "J(6,2)",
            "array": ((15, 6, 1), (1, 6, 15)),
        }
    )
    rows.append(
        {
            "graph": "Gosset",
            "builder": gosset,
            "DL": (27, 3),
            "V": 56,
            "dim": 7,
            "mu": 5,
            "sphere": "Schlafli",
            "array": ((27, 10, 1), (1, 10, 27)),
        }
    )
    return rows


def _select(rows: list, selection: Optional[list[int]]) -> list:
    if selection is None:
        return rows
    return [rows[i] for i in selection]


def compute_table1(selection: Optional[list[int]] = None) -> tuple[list[dict[str, str]], list[CellDiff]]:
    out_rows: list[dict[str, str]] = []
    diffs: list[CellDiff] = []
    for row in _select(_table1_rows(), selection):
        name = row["graph"]
        g = row["builder"]()
        ctx = GraphAnalysis(g, distances(g))
        deg = g.is_regular()
        got: dict[str, str] = {"graph": name}

        def cell(column: str, want, actual) -> None:
            got[column] = str(actual)
            if str(want) != str(actual):
                diffs.append(CellDiff(name, column, str(want), str(actual)))

        cell("(D,L)", row["DL"], (deg, ctx.d.diameter))
        cell("|V|", row["V"], g.n)
        cell("dim", row["dim"], ctx.spectrum.lambda1_multiplicity)
        mu_verdict = ctx.mu_graphs
        mu_actual = (
            f"CP({mu_verdict.m_values[0][0]})"
            if mu_verdict.holds and len(mu_verdict.m_values) == 1
            else f"not uniform: {mu_verdict.m_values}"
        )
        cell("mu-graph", f"CP({row['mu']})", mu_actual)
        ok, detail = _check_sphere_structure(g, row["sphere"])
        cell("S1(x)", row["sphere"], detail if ok else detail)
        cell("array", row["array"], intersection_array(g, ctx.d))
        out_rows.append(got)
    return out_rows, diffs


# ---------------------------------------------------------------------------
# Table 2: strongly regular graphs with smallest adjacency eigenvalue -2


def _table2_rows() -> list[dict[str, Any]]:
    return [
        {
            "graph": "CP(3)",
            "builder": lambda: cocktail_party(3),
            "srg": (6, 4, 2, 4),
            "theta1": Fraction(0),
            "lambda1": Fraction(1),
            "inf_kappa": Fraction(1),
        },
        {
            "graph": "K3 x K3",
            "builder": lambda: lattice(3),
            "srg": (9, 4, 1, 2),
            "theta1": Fraction(1),
            "lambda1": Fraction(3, 4),
            "inf_kappa": Fraction(3, 4),
        },
        {
            "graph": "Shrikhande",
            "builder": shrikhande,
            "srg": (16, 6, 2, 2),
            "theta1": Fraction(2),
            "lambda1": Fraction(2, 3),
            "inf_kappa": Fraction(1, 3),
        },
        {
            "graph": "J(5,2)",
            "builder": lambda: johnson(5, 2),
            "srg": (10, 6, 3, 4),
            "theta1": Fraction(1),
            "lambda1": Fraction(5, 6),
            "inf_kappa": Fraction(5, 6),
        },
        {
            "graph": "Chang1",
            "builder": lambda: load_fixture("chang1"),
            "srg": (28, 12, 6, 4),
            "theta1": Fraction(4),
            "lambda1": Fraction(2, 3),
            "inf_kappa": Fraction(1, 3),
        },
        {
            "graph": "Chang2",
            "builder": lambda: load_fixture("chang2"),
            "srg": (28, 12, 6, 4),
            "theta1": Fraction(4),
            "lambda1": Fraction(2, 3),
            "inf_kappa": Fraction(1, 3),
        },
        {
            "graph": "Chang3",
            "builder": lambda: load_fixture("chang3"),
            "srg": (28, 12, 6, 4),
            "theta1": Fraction(4),
            "lambda1": Fraction(2, 3),
            "inf_kappa": Fraction(1, 3),
        },
        {
            "graph": "Petersen",
            "builder": lambda: kneser(5, 2),
            "srg": (10, 3, 0, 1),
            "theta1": Fraction(1),
            "lambda1": Fraction(2, 3),
            "inf_kappa": Fraction(0),
        },
        {
            "graph": "Q^5_(2)",
            "builder": lambda: demi_cube(5),
            "srg": (16, 10, 6, 6),
            "theta1": Fraction(2),
            "lambda1": Fraction(4, 5),
            "inf_kappa": Fraction(4, 5),
        },
        {
            "graph": "Schlafli",
            "builder": schlafli,
            "srg": (27, 16, 10, 8),
            "theta1": Fraction(4),
            "lambda1": Fraction(3, 4),
            "inf_kappa": Fraction(3, 4),
        },
    ]


def compute_table2(selection: Optional[list[int]] = None) -> tuple[list[dict[str, str]], list[CellDiff]]:
    out_rows: list[dict[str, str]] = []
    diffs: list[CellDiff] = []
    for row in _select(_table2_rows(), selection):
        name = row["graph"]
        g = row["builder"]()
        ctx = GraphAnalysis(g, distances(g))
        got: dict[str, str] = {"graph": name}

        params = is_strongly_regular(g)
        actual_srg = (params.nu, params.k, params.lam, params.mu) if params else None
        got["srg"] = str(actual_srg)
        if actual_srg != row["srg"]:
            diffs.append(CellDiff(name, "srg", str(row["srg"]), str(actual_srg)))

        summ = ctx.spectrum
        got["theta1"] = frac_str(row["theta1"])
        if abs(summ.theta1 - float(row["theta1"])) > SPECTRAL_TOL:
            diffs.append(CellDiff(name, "theta1", str(row["theta1"]), repr(summ.theta1)))
            got["theta1"] = repr(summ.theta1)
        got["lambda1"] = frac_str(row["lambda1"])
        if abs(summ.lambda1 - float(row["lambda1"])) > SPECTRAL_TOL:
            diffs.append(CellDiff(name, "lambda1", str(row["lambda1"]), repr(summ.lambda1)))
            got["lambda1"] = repr(summ.lambda1)

        inf_k = ctx.bm.inf_edge_kappa
        got["inf_kappa"] = frac_str(inf_k)
        if inf_k != row["inf_kappa"]:
            diffs.append(CellDiff(name, "inf_kappa", frac_str(row["inf_kappa"]), frac_str(inf_k)))
        out_rows.append(got)
    return out_rows, diffs


# ---------------------------------------------------------------------------
# Table 3: distance-regular graphs with second largest eigenvalue b1 - 1


def _table3_rows() -> list[dict[str, Any]]:
    return [
        {
            "graph": "(K3)^2",
            "builder": lambda: hamming(3, 2),
            "V": 9,
            "D": 4,
            "L": 2,
            "theta1": Fraction(1),
            "lambda1": Fraction(3, 4),
            "inf_kappa": Fraction(3, 4),
        },
        {
            "graph": "(K4)^2",
            "builder": lambda: hamming(4, 2),
            "V": 16,
            "D": 6,
            "L": 2,
            "theta1": Fraction(2),
            "lambda1": Fraction(2, 3),
            "inf_kappa": Fraction(2, 3),
        },
        {
            "graph": "Doob(1,1)",
            "builder": lambda: doob(1, 1),
            "V": 64,
            "D": 9,
            "L": 3,
            "theta1": Fraction(5),
            "lambda1": Fraction(4, 9),
            "inf_kappa": Fraction(2, 9),
        },
        {
            # The Kneser graph is srg(21,10,3,6), so theta1 = (-3+5)/2 = 1
            # exactly and lambda1 = 9/10; b1 - 1 = 5 differs from theta1, so
            # the b1 - 1 identity of the remaining rows does not apply here.
            "graph": "Kneser(7,2)",
            "builder": lambda: kneser(7, 2),
            "V": 21,
            "D": 10,
            "L": 2,
            "theta1": Fraction(1),
            "lambda1": Fraction(9, 10),
            "inf_kappa": Fraction(1, 2),
            "check_b1": False,
        },
        {
            "graph": "Conway-Smith",
            "builder": lambda: load_fixture("conway_smith"),
            "V": 63,
            "D": 10,
            "L": 4,
            "theta1": Fraction(5),
            "lambda1": Fraction(1, 2),
            "inf_kappa": Fraction(-1, 10),
        },
        {
            "graph": "Hall",
            "builder": lambda: load_fixture("hall"),
            "V": 65,
            "D": 10,
            "L": 3,
            "theta1": Fraction(5),
            "lambda1": Fraction(1, 2),
            "inf_kappa": Fraction(-1, 10),
        },
        {
            "graph": "J(6,3)",
            "builder": lambda: johnson(6, 3),
            "V": 20,
            "D": 9,
            "L": 3,
            "theta1": Fraction(3),
            "lambda1": Fraction(2, 3),
            "inf_kappa": Fraction(2, 3),
        },
        {
            "graph": "Q^5_(2)",
            "builder": lambda: demi_cube(5),
            "V": 16,
            "D": 10,
            "L": 2,
            "theta1": Fraction(2),
            "lambda1": Fraction(4, 5),
            "inf_kappa": Fraction(4, 5),
        },
        {
            "graph": "Gosset",
            "builder": gosset,
            "V": 56,
            "D": 27,
            "L": 3,
            "theta1": Fraction(9),
            "lambda1": Fraction(2, 3),
            "inf_kappa": Fraction(2, 3),
        },
    ]


def compute_table3(selection: Optional[list[int]] = None) -> tuple[list[dict[str, str]], list[CellDiff]]:
    out_rows: list[dict[str, str]] = []
    diffs: list[CellDiff] = []
    for row in _select(_table3_rows(), selection):
        name = row["graph"]
        g = row["builder"]()
        ctx = GraphAnalysis(g, distances(g))
        got: dict[str, str] = {"graph": name}

        def cell(column: str, want, actual) -> None:
            got[column] = str(actual)
            if str(want) != str(actual):
                diffs.append(CellDiff(name, column, str(want), str(actual)))

        cell("|V|", row["V"], g.n)
        cell("D", row["D"], g.is_regular())
        cell("L", row["L"], ctx.d.diameter)

        summ = ctx.spectrum
        got["theta1"] = frac_str(row["theta1"])
        if abs(summ.theta1 - float(row["theta1"])) > SPECTRAL_TOL:
            diffs.append(CellDiff(name, "theta1", str(row["theta1"]), repr(summ.theta1)))
            got["theta1"] = repr(summ.theta1)
        got["lambda1"] = frac_str(row["lambda1"])
        if abs(summ.lambda1 - float(row["lambda1"])) > SPECTRAL_TOL:
            diffs.append(CellDiff(name, "lambda1", str(row["lambda1"]), repr(summ.lambda1)))
            got["lambda1"] = repr(summ.lambda1)

        # theta1 must equal b1 - 1 for these distance-regular rows
        arr = intersection_array(g, ctx.d)
        if arr is None:
            diffs.append(CellDiff(name, "distance-regular", "yes", "no"))
        elif row.get("check_b1", True):
            b1 = arr[0][1]
            if abs(summ.theta1 - (b1 - 1)) > SPECTRAL_TOL:
                diffs.append(
                    CellDiff(name, "theta1=b1-1", str(b1 - 1), repr(summ.theta1))
                )

        inf_k = ctx.bm.inf_edge_kappa
        got["inf_kappa"] = frac_str(inf_k)
        if inf_k != row["inf_kappa"]:
            diffs.append(
                CellDiff(name, "inf_kappa", frac_str(row["inf_kappa"]), frac_str(inf_k))
            )
        out_rows.append(got)
    return out_rows, diffs


TABLES: dict[int, Callable[[], tuple[list[dict[str, str]], list[CellDiff]]]] = {
    1: compute_table1,
    2: compute_table2,
    3: compute_table3,
}

_ROW_LISTS = {1: _table1_rows, 2: _table2_rows, 3: _table3_rows}


def table_size(table_id: int) -> int:
    return len(_ROW_LISTS[table_id]())


def _compute_row(table_id: int, index: int) -> tuple[list[dict[str, str]], list[CellDiff]]:
    return TABLES[table_id]([index])


def compute_table(table_id: int, jobs: int = 1) -> tuple[list[dict[str, str]], list[CellDiff]]:
    """Compute a table, optionally with one worker process per row.

    Row order (and hence output) is identical for any job count.
    """
    indices = list(range(table_size(table_id)))
    pieces = map_shared(_compute_row, (table_id,), indices, jobs)
    rows = [row for piece_rows, _ in pieces for row in piece_rows]
    diffs = [diff for _, piece_diffs in pieces for diff in piece_diffs]
    return rows, diffs


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
