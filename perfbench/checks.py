"""Output checks against reference outputs captured from canonical inputs.

Tables must match byte for byte.  Relabelled inputs are compared only on
fields that do not depend on vertex labels: verdicts, exact curvature
values, the multiset of edge values and methods, the multiset of
Bakry-Emery rows and the conjecture block.  Floats (eigenvalues,
Bakry-Emery curvatures) may move in the last digits when the vertex order
changes, so they are compared with a relative tolerance of 1e-9; every other
field is compared exactly.  A ``--plan`` job passes when its curvature
equals the reference value of the same canonical pair, its plan has the
exact marginals of the two idle measures, and the plan's cost equals the
printed W1.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, deque
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, Optional

from workloads import Input, Job

REF_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_KEYS = frozenset({"lambda1", "theta1", "curvature", "s1pp_lambda1", "inf_curvature", "margin"})
LABEL_KEYS = frozenset({"witness_edge", "vertex"})
PLAN_LINE = re.compile(r"kappa_1/2\((\d+),(\d+)\) = (\S+) \((\S+)\)$")


@cache
def reference(name: str) -> str:
    return (REF_DIR / name).read_text()


@cache
def plan_references() -> dict[str, dict[str, str]]:
    return json.loads(reference("plans.json"))


def check_output(job: Job, out: str, inputs: dict[str, Input]) -> Optional[str]:
    """None when ``out`` is a correct stdout for ``job``, else the reason."""
    try:
        if job.check == "exact":
            return None if out == reference(job.ref) else "stdout differs from the reference"
        inp = inputs[job.graph]
        if job.check == "analyze":
            return _check_analyze(json.loads(out), json.loads(reference(job.ref)), inp)
        if job.check == "be":
            return _check_be(json.loads(out), json.loads(reference(job.ref)), inp)
        if job.check == "edges":
            return _check_edges(out, reference(job.ref), inp)
        if job.check == "plan":
            return _check_plan(out, job, inp)
        return f"unknown check {job.check!r}"
    except Exception as exc:  # any malformed output is a failed check
        return f"output could not be checked: {exc!r}"


def _close(got: str, want: str) -> bool:
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-12)
    except ValueError:
        return False


def _diff(got: Any, want: Any, path: str = "") -> Optional[str]:
    """First difference between two JSON values, skipping label-dependent keys."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{path}: keys differ"
        for key in want:
            if key in LABEL_KEYS:
                continue
            found = _diff(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _diff(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(got) is type(want) and got == want:
        return None
    key = path.rsplit(".", 1)[-1]
    if key in FLOAT_KEYS and isinstance(got, str) and isinstance(want, str) and _close(got, want):
        return None
    return f"{path}: got {got!r}, want {want!r}"


def _check_rows(got: list[dict], want: list[dict], inp: Input) -> Optional[str]:
    """Bakry-Emery rows: one per vertex, equal to the reference as a multiset."""
    if sorted(row["vertex"] for row in got) != list(range(len(inp.perm))):
        return "rows do not list every vertex once"
    remaining = list(want)
    for row in got:
        for i, cand in enumerate(remaining):
            if _diff(row, cand) is None:
                del remaining[i]
                break
        else:
            return f"row {row} matches no reference row"
    return None


def _check_be(got: dict, want: dict, inp: Input) -> Optional[str]:
    found = _diff({k: v for k, v in got.items() if k != "rows"},
                  {k: v for k, v in want.items() if k != "rows"})
    return found or _check_rows(got["rows"], want["rows"], inp)


def _check_analyze(got: dict, want: dict, inp: Input) -> Optional[str]:
    if "witness_edge" in want:
        u, v = got["witness_edge"]
        if v not in inp.adjacency[u]:
            return f"witness ({u},{v}) is not an edge"
    got, want = dict(got), dict(want)
    if want["mu_graphs"]["all_cocktail_party"] is False:
        # the scan stops at the first failing pair, so its partial counts
        # depend on the vertex order
        got["mu_graphs"] = {**got["mu_graphs"], "m_values": None}
        want["mu_graphs"] = {**want["mu_graphs"], "m_values": None}
    be_got, be_want = got.pop("bakry_emery", None), want.pop("bakry_emery", None)
    found = _diff(got, want)
    if found:
        return found
    if be_want is None or be_got is None:
        return None if be_want is be_got else "bakry_emery block presence differs"
    return _check_be(be_got, be_want, inp)


def _edge_lines(text: str) -> tuple[list[frozenset[int]], Counter, str]:
    lines = text.splitlines()
    edges, values = [], Counter()
    for line in lines[:-1]:
        u, v, value, method = line.split()
        edges.append(frozenset((int(u), int(v))))
        values[(value, method)] += 1
    return edges, values, lines[-1]


def _check_edges(out: str, ref: str, inp: Input) -> Optional[str]:
    edges, values, inf_line = _edge_lines(out)
    _, want_values, want_inf = _edge_lines(ref)
    graph_edges = {frozenset((u, w)) for u, nbrs in enumerate(inp.adjacency) for w in nbrs}
    if len(edges) != len(graph_edges) or set(edges) != graph_edges:
        return "edge lines do not list every edge once"
    if values != want_values:
        return "multiset of edge values and methods differs"
    if inf_line != want_inf:
        return f"got {inf_line!r}, want {want_inf!r}"
    return None


def _bfs(adjacency: tuple[frozenset[int], ...], source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _idle_half(adjacency: tuple[frozenset[int], ...], x: int) -> dict[int, Fraction]:
    share = Fraction(1, 2 * len(adjacency[x]))
    masses = {w: share for w in adjacency[x]}
    masses[x] = Fraction(1, 2)
    return masses


def _check_plan(out: str, job: Job, inp: Input) -> Optional[str]:
    first, plan_line = out.splitlines()
    match = PLAN_LINE.match(first)
    if match is None:
        return f"unexpected first line {first!r}"
    x, y = int(match[1]), int(match[2])
    a, b = job.pair
    if (x, y) != (inp.perm[a], inp.perm[b]):
        return f"printed pair ({x},{y}) is not the requested one"
    want = plan_references()[job.graph][f"{a} {b}"]
    if f"{match[3]} {match[4]}" != want:
        return f"got {match[3]} ({match[4]}), want {want}"
    rows: dict[int, Fraction] = {}
    cols: dict[int, Fraction] = {}
    cost = Fraction(0)
    dists: dict[int, list[int]] = {}
    for u, v, mass in json.loads(plan_line)["entries"]:
        m = Fraction(mass)
        if m <= 0:
            return f"plan entry ({u},{v}) has mass {m}"
        rows[u] = rows.get(u, Fraction(0)) + m
        cols[v] = cols.get(v, Fraction(0)) + m
        if u not in dists:
            dists[u] = _bfs(inp.adjacency, u)
        cost += m * dists[u][v]
    if rows != _idle_half(inp.adjacency, x) or cols != _idle_half(inp.adjacency, y):
        return "plan marginals are not the idle measures"
    w1 = (1 - Fraction(match[3])) * _bfs(inp.adjacency, x)[y]
    if cost != w1:
        return f"plan cost {cost} differs from the printed W1 {w1}"
    return None
