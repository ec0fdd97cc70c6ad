"""Span recorder for the traced run, and the per-layer metrics built from it.

:meth:`Tracer.install` replaces each function in ``TRACED`` by a wrapper
that records a span: name, start, end, parent span, job id and a small
detail taken from the call (a graph, a problem size, a route).  The wrapper
replaces the function in its defining module and in every ``curvlab``
module that bound it with ``from ... import``.  Spans stay in memory until
the pass ends.  A span's self time is its duration minus the durations of
its child spans; calls are single-threaded, so children never overlap.

Hot accessors such as ``DistanceOracle.d`` are deliberately not wrapped.
A function that a later version of curvlab no longer has is skipped and
reads as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional


def _graph_key(g) -> tuple:
    return (g.n, g.adjacency)


def _kappa_detail(result, g, d, x, y, *args, **kwargs):
    return (_graph_key(g), min(x, y), max(x, y), result.method)


def _wasserstein_route(d, m1, m2) -> str:
    """The route wasserstein takes: equal atomic masses means assignment."""
    masses = {m for _, m in m1.mass} | {m for _, m in m2.mass}
    return "assignment" if len(m1.mass) == len(m2.mass) and len(masses) == 1 else "flow"


# (module, function, detail(result, *args, **kwargs) or None)
TRACED: tuple[tuple[str, str, Optional[Callable[..., Any]]], ...] = (
    ("graphs", "distances", lambda res, g, *a, **k: _graph_key(g)),
    ("graphs", "interval", None),
    ("graphs", "induced_subgraph", None),
    ("_kernels", "bfs_all_pairs", None),
    ("_kernels", "induced_distances", lambda res, indptr, indices, members, *a, **k: len(members)),
    ("_kernels", "is_antipodal_matrix", None),
    ("_kernels", "hungarian", lambda res, cost, *a, **k: cost.shape[0]),
    ("_kernels", "interval_members", lambda res, dist_x, *a, **k: len(res) == len(dist_x)),
    ("transport", "kappa", _kappa_detail),
    ("transport", "curvature_via_matching", lambda res, *a, **k: res is not None),
    ("transport", "wasserstein", lambda res, d, m1, m2, *a, **k: (len(m1.mass) + len(m2.mass)) / 2),
    ("sharpness", "bm_sharpness", None),
    ("sharpness", "mu_graphs_all_cp", None),
    ("sharpness", "local_srg_check", None),
    ("sharpness", "lambda_m_check", None),
    ("sharpness", "classify", None),
    ("sharpness", "is_strongly_spherical", None),
    ("spectral", "spectral_summary", None),
    ("spectral", "is_lichnerowicz_sharp", None),
    ("bakry_emery", "be_curvature", None),
    ("bakry_emery", "conjecture_scan", None),
    ("isomorphism", "find_isomorphism", None),
    ("tables", "compute_table", None),
    ("report", "analyze", None),
    ("cli", "main", None),
    ("families", "from_spec", None),
    ("fixtures", "load_fixture", None),
    ("graph6", "load_graph", None),
)
ROUTED = {"transport.wasserstein": _wasserstein_route}
ROUTES = ("assignment", "flow")


def _span_name(module: str, function: str) -> str:
    # metric names must start with a letter, so ``_kernels`` reads ``kernels``
    return f"{module.lstrip('_')}.{function}"


def _span_names() -> list[str]:
    names = []
    for module, function, _ in TRACED:
        name = _span_name(module, function)
        if name in ROUTED:
            names.extend(f"{name}.{r}" for r in ROUTES)
        else:
            names.append(name)
    return names


# (name, unit, better, steady): steady metrics are counts and must repeat
# exactly across traced passes of one seed.
DERIVED = (
    ("graphs.distances.per_graph", "ratio", "lower", True),
    ("kernels.hungarian.size_mean", "rows", "lower", True),
    ("kernels.induced_distances.size_mean", "vertices", "lower", True),
    ("transport.kappa.per_edge", "ratio", "lower", True),
    ("transport.kappa.by_method.matching", "count", "higher", True),
    ("transport.kappa.by_method.assignment", "count", "lower", True),
    ("transport.matching.hit_ratio", "ratio", "higher", True),
    ("transport.wasserstein.assignment.support_mean", "atoms", "lower", True),
    ("transport.wasserstein.flow.support_mean", "atoms", "lower", True),
    ("sharpness.intervals_scanned", "count", "lower", True),
    ("sharpness.intervals_full", "count", "higher", True),
    ("sharpness.is_strongly_spherical.wall_share", "ratio", "lower", False),
    ("bakry_emery.be_curvature.ms_per_vertex", "ms", "lower", False),
    ("trace.wall_s", "s", "lower", False),
    ("trace.overhead_s", "s", "lower", False),
)


def metric_specs() -> list[tuple[str, str, str, bool]]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    specs = []
    for name in _span_names():
        specs.append((f"{name}.calls", "count", "lower", True))
        specs.append((f"{name}.self_s", "s", "lower", False))
    return specs + list(DERIVED)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, job, detail]
        self.stack: list[int] = []
        self.job = -1
        self.missing: list[str] = []
        self.detail_errors = 0

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever curvlab bound it."""
        for module, function, detail in TRACED:
            try:
                mod = importlib.import_module(f"curvlab.{module}")
            except ImportError:
                mod = None
            original = getattr(mod, function, None)
            if original is None:
                self.missing.append(f"{module}.{function}")
                continue
            name = _span_name(module, function)
            wrapper = self._wrap(name, original, detail, ROUTED.get(name))
            for mod_name, other in list(sys.modules.items()):
                if other is None or not (mod_name == "curvlab" or mod_name.startswith("curvlab.")):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapper)

    def _wrap(self, name: str, fn: Callable, detail, route) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if route is not None:
                try:
                    label = f"{name}.{route(*args, **kwargs)}"
                except Exception:  # a changed signature must not break the program
                    self.detail_errors += 1
            span = [label, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if detail is not None:
                try:
                    span[5] = detail(result, *args, **kwargs)
                except Exception:  # a changed signature must not break the program
                    self.detail_errors += 1
            return result

        return wrapper

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[list], wall_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    details: dict[str, list] = defaultdict(list)
    for i, (name, start, end, _, job, detail) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        incl_s[name] += end - start
        details[name].append((job, detail))

    out: dict[str, float] = {}
    for name in _span_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    def mean_detail(name: str) -> float:
        values = [d for _, d in details[name] if d is not None]
        return statistics.fmean(values) if values else 0.0

    graphs = {(job, key) for job, key in details["graphs.distances"]}
    out["graphs.distances.per_graph"] = _ratio(calls["graphs.distances"], len(graphs))
    out["kernels.hungarian.size_mean"] = mean_detail("kernels.hungarian")
    out["kernels.induced_distances.size_mean"] = mean_detail("kernels.induced_distances")
    kappas = [d for _, d in details["transport.kappa"] if d is not None]
    edges = {(job, d[:3]) for job, d in details["transport.kappa"] if d is not None}
    out["transport.kappa.per_edge"] = _ratio(calls["transport.kappa"], len(edges))
    methods = Counter(d[3] for d in kappas)
    out["transport.kappa.by_method.matching"] = methods["matching"]
    out["transport.kappa.by_method.assignment"] = methods["assignment"]
    hits = sum(1 for _, hit in details["transport.curvature_via_matching"] if hit)
    out["transport.matching.hit_ratio"] = _ratio(hits, calls["transport.curvature_via_matching"])
    for route in ROUTES:
        out[f"transport.wasserstein.{route}.support_mean"] = mean_detail(f"transport.wasserstein.{route}")

    def under_scan(i: int) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == "sharpness.is_strongly_spherical":
                return True
            parent = spans[parent][3]
        return False

    scanned = full = 0
    for i, span in enumerate(spans):
        if span[0] == "kernels.interval_members" and under_scan(i):
            full += span[5] is True
            scanned += span[5] is False
    out["sharpness.intervals_scanned"] = scanned
    out["sharpness.intervals_full"] = full
    out["sharpness.is_strongly_spherical.wall_share"] = _ratio(
        incl_s["sharpness.is_strongly_spherical"], wall_s
    )
    out["bakry_emery.be_curvature.ms_per_vertex"] = 1000 * _ratio(
        incl_s["bakry_emery.be_curvature"], calls["bakry_emery.be_curvature"]
    )
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = overhead_s
    return out
