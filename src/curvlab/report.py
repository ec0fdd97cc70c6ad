"""Per-graph analysis reports: one JSON-ready verdict bundle per graph.

Reports are deterministic: sorted keys, canonical fraction strings, floats
printed to 12 significant digits.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .analysis import GraphAnalysis
from .bakry_emery import BEReport, be_curvatures
from .errors import PreconditionUnmet
from .graphs import Graph, distances
from .sharpness import (
    classify,
    is_strongly_spherical,
    lambda_m_check,
    local_srg_check,
)
from .spectral import is_lichnerowicz_sharp


def frac_str(value: Fraction | int) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def float_str(value: float) -> str:
    return format(float(value), ".12g")


def be_row(row: BEReport) -> dict[str, Any]:
    """The report form of one vertex's Bakry-Emery curvature."""
    return {
        "vertex": row.vertex,
        "curvature": float_str(row.curvature),
        "upper_bound": frac_str(row.upper_bound) if row.upper_bound is not None else None,
        "sharp": row.is_sharp,
        "s1_out_regular": row.s1_out_regular,
        "s1pp_lambda1": float_str(row.s1pp_lambda1) if row.s1pp_lambda1 is not None else None,
    }


def analyze(
    g: Graph,
    name: str = "graph",
    skip_be: bool = False,
    skip_spherical: bool = False,
) -> dict[str, Any]:
    """Run the full predicate pipeline and return the report dict.

    The analysis context refuses a disconnected or irregular graph, so the
    ``connected`` and ``regular`` keys are always true.
    """
    ctx = GraphAnalysis(g)
    deg, L = ctx.deg, distances(g).diameter
    report: dict[str, Any] = {
        "graph": name,
        "vertices": g.n,
        "edges": g.edge_count,
        "regular": True,
        "D": deg,
        "L": L,
        "connected": True,
    }
    verdict = ctx.bm
    _, self_centered = ctx.poles_and_antipoles
    report["inf_kappa"] = frac_str(verdict.inf_edge_kappa)
    report["witness_edge"] = list(verdict.witness_edge)
    report["bm_sharp"] = verdict.is_bm_sharp
    report["dl_constraints"] = {
        "L_le_D": verdict.l_le_d,
        "L_divides_2D": verdict.l_divides_2d,
    }
    report["self_centered"] = self_centered

    lich = is_lichnerowicz_sharp(ctx)
    report["lambda1"] = float_str(lich.lambda1)
    report["lichnerowicz_sharp"] = lich.is_sharp
    report["lichnerowicz_exact_certificate"] = lich.exact_certificate

    summ = ctx.spectrum
    report["theta1"] = float_str(summ.theta1)
    report["lambda1_multiplicity"] = summ.lambda1_multiplicity

    m = Fraction(2 * deg, L) - 2
    if m.denominator == 1 and m >= 0:
        lam = lambda_m_check(ctx, int(m))
        report["lambda_m"] = {"m": int(m), "holds": lam.holds}
    else:
        report["lambda_m"] = {"m": None, "holds": False}

    mu_verdict = ctx.mu_graphs
    report["mu_graphs"] = {
        "all_cocktail_party": mu_verdict.holds,
        "m_values": [list(item) for item in mu_verdict.m_values],
    }

    try:
        srg = local_srg_check(ctx)
        report["local_srg"] = {
            "holds": srg.holds,
            "params": [frac_str(p) for p in srg.params],
            "theta": frac_str(srg.theta),
        }
    except PreconditionUnmet as exc:
        report["local_srg"] = {"holds": None, "reason": str(exc)}

    if not skip_spherical:
        sph = is_strongly_spherical(g)
        report["strongly_spherical"] = sph.holds

    if not skip_be:
        rows = be_curvatures(g, range(g.n))
        report["bakry_emery"] = {
            "inf_curvature": float_str(min(row.curvature for row in rows)),
            "rows": [be_row(row) for row in rows],
        }

    cls = classify(ctx)
    report["classification"] = {
        "matched": cls.matched.to_json() if cls.matched else None,
        "reason": cls.reason,
    }
    return report


def report_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
