"""Command-line interface.

Exit codes: 0 success, 2 input error (parsing, bad parameters), 3 structural
precondition failure (disconnected, non-regular, ...), 4 verification
mismatch (table cells, geodesic checks).

Graph inputs are file paths (graph6 or JSON edge list); when the path does
not exist the argument is parsed as a family spec like ``hypercube:4`` or a
fixture name like ``chang1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import GraphAnalysis
from .bakry_emery import be_curvature, conjecture_scan
from .errors import (
    CurvlabError,
    FormatError,
    InputError,
    NoEdges,
    PreconditionError,
    VerificationError,
    VertexOutOfRange,
)
from .families import FamilySpec, from_spec
from .fixtures import FIXTURE_NAMES, load_fixture
from .graph6 import encode_graph6, graph_to_json, load_graph
from .graphs import Graph, distances
from .parallel import map_shared
from .report import analyze, be_row, float_str, frac_str, report_json
from .sharpness import bm_sharpness, classify
from .spectral import spectral_summary
from .tables import compute_table, render_table
from .transport import (
    _kappa_p_plan,
    idle_measure,
    kappa,
    transport_geodesic,
    wasserstein,
)


def _parse_spec_args(args: list[str]) -> FamilySpec:
    if not args:
        raise InputError("gen needs a family name")
    name = args[0].strip().lower().replace("-", "").replace("_", "")
    if name == "product":
        factors = tuple(FamilySpec.parse(a) for a in args[1:])
        return FamilySpec("product", factors=factors)
    try:
        params = tuple(int(a) for a in args[1:])
    except ValueError as exc:
        raise InputError(f"non-integer family parameter: {exc}") from exc
    return FamilySpec(name, params)


def _load_input(text: str) -> Graph:
    path = Path(text)
    if path.exists():
        return load_graph(str(path))
    if text in FIXTURE_NAMES:
        return load_fixture(text)
    return from_spec(FamilySpec.parse(text))


def _load_connected(text: str) -> Graph:
    """:func:`_load_input`, refusing a disconnected graph."""
    g = _load_input(text)
    if not distances(g).is_connected:
        raise PreconditionError("input graph is disconnected")
    return g


def _emit(text: str, out: str | None) -> None:
    """Write text to stdout, or to the ``-o`` path when one is given."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise InputError(f"{out}: cannot write: {exc.strerror}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    g = from_spec(_parse_spec_args(args.spec))
    out = args.output
    if args.json or (out is not None and out.endswith(".json")):
        text = json.dumps(graph_to_json(g), sort_keys=True, indent=2) + "\n"
    else:
        text = encode_graph6(g) + "\n"
    _emit(text, out)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.output and not Path(args.output).parent.is_dir():
        _emit("", args.output)  # fails now as it would after the analysis
    report = analyze(
        _load_connected(args.input),
        name=args.name or args.input,
        skip_be=args.skip_be,
        skip_spherical=args.skip_spherical,
    )
    _emit(report_json(report) + "\n", args.output)
    return 0


def _edge_kappa(g: Graph, edge: tuple[int, int]) -> tuple[tuple[int, int], Fraction, str]:
    val = kappa(g, *edge)
    return edge, val.value, val.method


def _check_vertices(g: Graph, *vertices: int) -> None:
    """Reject vertex ids outside [0, n); numpy would wrap negative ones."""
    for v in vertices:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} outside [0,{g.n})")


def cmd_curvature(args: argparse.Namespace) -> int:
    if args.all_edges and (args.x is not None or args.p is not None or args.plan):
        raise InputError(
            "--all-edges computes plain kappa on every edge; it takes no vertex pair, --p or --plan"
        )
    g = _load_connected(args.input)
    if g.is_regular() is None:
        raise PreconditionError("curvature needs a regular graph")
    if args.all_edges:
        edges = g.edges()
        if not edges:
            raise NoEdges("the graph has no edges")
        rows = map_shared(_edge_kappa, (g,), edges, args.jobs)
        for (u, v), val, method in rows:
            print(f"{u} {v} {frac_str(val)} ({method})")
        print(f"inf = {frac_str(min(val for _, val, _ in rows))}")
        return 0
    if args.x is None or args.y is None:
        raise InputError("curvature needs x and y (or --all-edges)")
    x, y = args.x, args.y
    _check_vertices(g, x, y)
    if args.p is not None:
        p = args.p
        val, plan = _kappa_p_plan(g, x, y, p)
        print(f"kappa_{p}({x},{y}) = {frac_str(val.value)} ({val.method})")
        if args.plan:
            print(json.dumps(plan.to_json(), sort_keys=True))
        return 0
    val = kappa(g, x, y)
    print(f"kappa({x},{y}) = {frac_str(val.value)} ({val.method})")
    if args.plan:
        p = Fraction(1, g.is_regular() + 1)
        w, plan = wasserstein(g, idle_measure(g, x, p), idle_measure(g, y, p))
        print(json.dumps(plan.to_json(), sort_keys=True))
    return 0


def cmd_spectral(args: argparse.Namespace) -> int:
    summ = spectral_summary(_load_connected(args.input))
    doc = {
        "lambda1": float_str(summ.lambda1),
        "lambda1_multiplicity": summ.lambda1_multiplicity,
        "theta1": float_str(summ.theta1) if summ.theta1 is not None else None,
        "laplacian_spectrum": [float_str(v) for v in summ.laplacian_spectrum],
        "adjacency_spectrum": [float_str(v) for v in summ.adjacency_spectrum],
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_bakry_emery(args: argparse.Namespace) -> int:
    g = _load_connected(args.input)
    if args.vertex is not None:
        _check_vertices(g, args.vertex)
        print(json.dumps(be_row(be_curvature(g, args.vertex)), sort_keys=True, indent=2))
        return 0
    reports = map_shared(be_curvature, (g,), range(g.n), args.jobs)
    doc: dict = {"rows": [be_row(r) for r in reports]}
    if g.is_regular() is not None:
        scan = conjecture_scan(g, [r.curvature for r in reports])
        doc["conjecture"] = {
            "inf_curvature": float_str(scan.inf_curvature),
            "bound": frac_str(scan.bound),
            "margin": float_str(scan.margin),
            "holds": scan.holds,
            "weak_bound": frac_str(scan.weak_bound),
            "weak_holds": scan.weak_holds,
        }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_sharpness(args: argparse.Namespace) -> int:
    verdict = bm_sharpness(GraphAnalysis(_load_input(args.input)))
    doc = {
        "inf_kappa": frac_str(verdict.inf_edge_kappa),
        "two_over_L": frac_str(verdict.two_over_l),
        "bm_sharp": verdict.is_bm_sharp,
        "L_le_D": verdict.l_le_d,
        "L_divides_2D": verdict.l_divides_2d,
        "witness_edge": list(verdict.witness_edge),
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    match = classify(GraphAnalysis(_load_input(args.input)))
    doc = {
        "matched": match.matched.to_json() if match.matched else None,
        "description": match.matched.describe() if match.matched else None,
        "reason": match.reason,
        "witness": list(match.iso_witness) if match.iso_witness else None,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    rows, diffs = compute_table(args.id, jobs=args.jobs)
    print(render_table(rows))
    if args.json:
        print(json.dumps({"rows": rows}, sort_keys=True, indent=2))
    if diffs:
        for diff in diffs:
            print(
                f"MISMATCH {diff.row} / {diff.column}: expected {diff.want}, got {diff.got}",
                file=sys.stderr,
            )
        return 4
    print(f"table {args.id}: all cells verified")
    return 0


def cmd_transport_geodesic(args: argparse.Namespace) -> int:
    g = _load_input(args.input)
    try:
        path = tuple(int(v) for v in args.path.split(","))
    except ValueError as exc:
        raise InputError(f"bad path {args.path!r}") from exc
    _check_vertices(g, *path, args.z)
    tg = transport_geodesic(g, path, args.z)
    doc = {
        "base": list(tg.base),
        "waypoints": list(tg.waypoints),
        "length": tg.length,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _jobs(text: str) -> int:
    """The ``--jobs`` value: a worker count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _idleness(text: str) -> Fraction:
    """The ``--p`` value: an exact rational such as ``1/2`` or ``0.25``.

    Exponents and texts over 100 characters are refused: ``1e999999999``
    would build a billion-digit integer, and exact W1 values on a long
    denominator can outgrow what ``str`` prints.
    """
    if len(text) > 100 or "e" in text.lower():
        raise argparse.ArgumentTypeError(
            f"not a plain fraction of at most 100 characters: {text[:40]!r}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="curvlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named family graph")
    p.add_argument("spec", nargs="+", help="family name + params, or: product f1:p f2:p ...")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true", help="write JSON instead of graph6")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("analyze", help="run the full predicate pipeline")
    p.add_argument("input")
    p.add_argument("--name", default=None)
    p.add_argument("--skip-be", action="store_true")
    p.add_argument("--skip-spherical", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("curvature", help="exact Ollivier-Ricci curvature")
    p.add_argument("input")
    p.add_argument("x", nargs="?", type=int, default=None)
    p.add_argument("y", nargs="?", type=int, default=None)
    p.add_argument("--p", type=_idleness, default=None, help="idleness as a fraction a/b")
    p.add_argument("--all-edges", action="store_true")
    p.add_argument("--plan", action="store_true", help="dump the optimal coupling")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("spectral", help="normalized Laplacian spectrum summary")
    p.add_argument("input")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("bakry-emery", help="Bakry-Emery infinity-curvature")
    p.add_argument("input")
    p.add_argument("--vertex", type=int, default=None)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(fn=cmd_bakry_emery)

    p = sub.add_parser("sharpness", help="Bonnet-Myers sharpness verdict")
    p.add_argument("input")
    p.set_defaults(fn=cmd_sharpness)

    p = sub.add_parser("classify", help="match against the classification list")
    p.add_argument("input")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("table", help="reproduce an analysis table and verify cells")
    p.add_argument("id", type=int, choices=(1, 2, 3))
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("transport-geodesic", help="push a vertex along a geodesic")
    p.add_argument("input")
    p.add_argument("--path", required=True, help="comma-separated vertex list")
    p.add_argument("--z", type=int, required=True)
    p.set_defaults(fn=cmd_transport_geodesic)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    for dest, value in vars(args).items():
        if value == []:  # argparse reads ``--opt=--`` as [] and never calls the type
            ap.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    try:
        return args.fn(args)
    except (InputError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CurvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
