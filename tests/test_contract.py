"""The library contract: every public function of ``graphs``, ``transport``,
``sharpness``, ``spectral``, ``bakry_emery`` and ``isomorphism``, called
with valid vertex ids on any graph, returns a value with no NaN in it or
raises a ``CurvlabError``.  Nothing else escapes, not even on the graph
with no vertex, isolated vertices, irregular or disconnected graphs.  On
the same graphs the bisection oracle derives ``be_curvature``'s value a
second time at every vertex with a neighbour.

The functions are listed from the modules themselves, and a function with
no entry in ``ARGS`` fails the suite, so a new public function cannot skip
the contract.
"""

import ast
import inspect
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab import bakry_emery, graphs, isomorphism, sharpness, spectral, transport
from curvlab.analysis import GraphAnalysis
from curvlab.errors import CurvlabError, NoEdges
from curvlab.graphs import build_graph
from curvlab.transport import Measure, idle_measure, matching_sides, unique_perfect_matching
from helpers import schur_and_bisection

MODULES = (graphs, transport, sharpness, spectral, bakry_emery, isomorphism)


class Lazy:
    """An argument built inside the checked call, so that a CurvlabError
    from building it (``GraphAnalysis`` refusing the graph) is a refusal."""

    def __init__(self, build):
        self.build = build


def _ctx(g):
    return Lazy(lambda: GraphAnalysis(g))


def _rows(g):
    """``be_curvatures``'s rows, or none where it refuses an isolated vertex."""
    if 0 in g.degrees:
        return []
    return Lazy(lambda: bakry_emery.be_curvatures(g, range(g.n)))


def _pairs(g):
    return list(product(range(g.n), repeat=2))


def _measures(g):
    """A Dirac measure at every vertex and, off isolated vertices, the
    idleness-1/2 measure."""
    dirac = [Measure.from_dict({x: 1}) for x in range(g.n)]
    idle = [idle_measure(g, x, Fraction(1, 2)) for x in range(g.n) if g.degree(x)]
    return dirac, idle


def _reversed(g):
    """g with vertex v renamed n - 1 - v."""
    return build_graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])


def _mappings(g):
    """The identity and the reversal of g's vertices, and mappings that are
    no bijection of them: one vertex short, one too many, a repeat."""
    ident = tuple(range(g.n))
    return [ident, ident[::-1], ident[:-1], ident + (g.n,), (0,) * g.n]


def _matchings(g, x, y):
    found = unique_perfect_matching(g, *matching_sides(g, x, y))
    return [{}] if found is None else [{}, found]


# argument tuples of every public function, as a function of the graph
ARGS = {
    "graphs.build_graph": lambda g: [(g.n, g.edges())],
    "graphs.distances": lambda g: [(g,)],
    "graphs.require_connected": lambda g: [(g,)],
    "graphs.require_regular": lambda g: [(g,)],
    "graphs.require_edges": lambda g: [(g,)],
    "graphs.interval": lambda g: [(g, x, y) for x, y in _pairs(g)],
    "graphs.degree_triple": lambda g: [(g, x, y) for x, y in _pairs(g)],
    "graphs.sphere_averages": lambda g: [(g, x, k) for x, k in _pairs(g)],
    "graphs.triangle_count_edge": lambda g: [(g, x, y) for x, y in _pairs(g)],
    "graphs.triangle_count_vertex": lambda g: [(g, x) for x in range(g.n)],
    "graphs.common_neighbors": lambda g: [(g, x, y) for x, y in _pairs(g)],
    "graphs.induced_subgraph": lambda g: [(g, range(k)) for k in range(g.n + 1)],
    "graphs.mu_graph": lambda g: [(g, x, y) for x, y in _pairs(g)],
    "graphs.is_cocktail_party": lambda g: [(g,)],
    "graphs.is_strongly_regular": lambda g: [(g,)],
    "graphs.intersection_array": lambda g: [(g,)],
    "graphs.cartesian_product": lambda g: [(g, g)],
    "graphs.poles_and_antipoles": lambda g: [(g,)],
    "transport.idle_measure": lambda g: [
        (g, x, p) for x in range(g.n) for p in (0, Fraction(1, 2), 1)
    ],
    "transport.wasserstein": lambda g: [
        (g, m1, m2) for kind in _measures(g) for m1, m2 in product(kind, repeat=2)
    ],
    "transport.kappa_p": lambda g: [
        (g, x, y, p) for x, y in _pairs(g) for p in (0, Fraction(1, 2))
    ],
    "transport.kappa": lambda g: [(g, x, y) for x, y in _pairs(g)],
    "transport.kappas": lambda g: [(g, []), (g, g.edges()), (g, _pairs(g))],
    "transport.matching_sides": lambda g: [(g, x, y) for x, y in _pairs(g)],
    "transport.unique_perfect_matching": lambda g: [
        (g, *matching_sides(g, x, y)) for x, y in _pairs(g)
    ],
    "transport.tpm_transport_map": lambda g: [
        (g, x, y, m) for x, y in _pairs(g) for m in _matchings(g, x, y)
    ],
    "transport.unique_tpm_transport_map": lambda g: [(g, x, y) for x, y in _pairs(g)],
    "transport.transport_geodesic": lambda g: [
        (g, path, z)
        for k in (1, 2, 3)
        for path in product(range(g.n), repeat=k)
        for z in range(g.n)
    ],
    "transport.geodesic_between": lambda g: [
        (g, x, y, via) for x, y in _pairs(g) for via in [(), *((v,) for v in range(g.n))]
    ],
    "transport.interval_antipole": lambda g: [
        (g, x, y, x1) for x, y, x1 in product(range(g.n), repeat=3)
    ],
    "transport.switching_map": lambda g: [(g, x, y) for x, y in _pairs(g)],
    "sharpness.bm_sharpness": lambda g: [(_ctx(g),)],
    "sharpness.lambda_m_check": lambda g: [(_ctx(g), m) for m in (0, 1, 2)],
    "sharpness.pole_facts": lambda g: [(g, x) for x in range(g.n)],
    "sharpness.degree_recursions": lambda g: [(g, x) for x in range(g.n)],
    "sharpness.interval_cover_check": lambda g: [(g,)],
    "sharpness.unique_antipole_check": lambda g: [(g,)],
    "sharpness.is_antipodal": lambda g: [(g, frozenset(range(k))) for k in range(g.n + 1)],
    "sharpness.is_strongly_spherical": lambda g: [(g,)],
    "sharpness.mu_graphs_all_cp": lambda g: [(g,)],
    "sharpness.local_srg_check": lambda g: [(_ctx(g),)],
    "sharpness.ssp_ncp": lambda g: [(g, x) for x in range(g.n)],
    "sharpness.four_cycle_lemma_check": lambda g: [(_ctx(g),)],
    "sharpness.classify": lambda g: [(_ctx(g),)],
    "spectral.adjacency_spectrum": lambda g: [(g,)],
    "spectral.laplacian_spectrum": lambda g: [(g,)],
    "spectral.spectral_summary": lambda g: [(g,)],
    "spectral.verify_distance_eigenfunction": lambda g: [(g, x) for x in range(g.n)],
    "spectral.is_lichnerowicz_sharp": lambda g: [(_ctx(g),)],
    "bakry_emery.be_curvature": lambda g: [(g, x) for x in range(g.n)],
    "bakry_emery.be_curvatures": lambda g: [
        (g, range(g.n)), (g, range(0, g.n, 2)), *((g, [x]) for x in range(g.n)), (g, []),
    ],
    "bakry_emery.conjecture_scan": lambda g: [(g, _rows(g))],
    "isomorphism.find_isomorphism": lambda g: [(g, g), (g, _reversed(g))],
    "isomorphism.automorphism_orbits": lambda g: [(g,)],
    "isomorphism.verify_isomorphism": lambda g: [
        (g, h, m) for h in (g, _reversed(g)) for m in _mappings(g)
    ],
}


def public_functions() -> dict:
    """``module.name`` of every public function each module defines."""
    return {
        f"{module.__name__.removeprefix('curvlab.')}.{name}": fn
        for module in MODULES
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


def _has_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "fc" and bool(np.isnan(value).any())
    if is_dataclass(value) and not isinstance(value, type):
        return any(_has_nan(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, dict):
        return any(_has_nan(k) or _has_nan(v) for k, v in value.items())
    if isinstance(value, (tuple, list, set, frozenset)):
        return any(_has_nan(item) for item in value)
    return False


def contract_escapes(g) -> list[str]:
    """Every call of a public function on g that raises something other than
    a CurvlabError or returns a NaN."""
    escapes = []
    for name, fn in public_functions().items():
        for args in ARGS[name](g):
            try:
                value = fn(*(a.build() if isinstance(a, Lazy) else a for a in args))
            except CurvlabError:
                continue
            except Exception as exc:  # the contract violation under test
                escapes.append(f"{name}{_shown(args)}: {type(exc).__name__}: {exc}")
                continue
            if _has_nan(value):
                escapes.append(f"{name}{_shown(args)}: returned NaN")
    return escapes


def _shown(args) -> str:
    return "(" + ", ".join("g" if isinstance(a, graphs.Graph) else repr(a) for a in args) + ")"


def test_every_public_function_has_arguments():
    assert sorted(public_functions()) == sorted(ARGS)


SMALL_GRAPHS = {
    "K0": (0, []),
    "K1": (1, []),
    "2K1": (2, []),
    "K2": (2, [(0, 1)]),
    "2K2": (4, [(0, 1), (2, 3)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "K1+K2": (3, [(1, 2)]),
}


@pytest.mark.parametrize("n, edges", SMALL_GRAPHS.values(), ids=SMALL_GRAPHS)
def test_small_graphs_meet_the_contract(n, edges):
    assert contract_escapes(build_graph(n, edges)) == []


@given(st.integers(min_value=0, max_value=7), st.data())
@settings(max_examples=50, deadline=None)
def test_drawn_graphs_meet_the_contract(n, data):
    # irregular and disconnected graphs included, isolated vertices too
    edges = [e for e in combinations(range(n), 2) if data.draw(st.booleans())]
    assert contract_escapes(build_graph(n, edges)) == []


def _bisect_every_vertex(g) -> None:
    """The bisection oracle at every vertex that has a neighbour; it raises
    FormCheckFailed where it and the Schur value disagree."""
    for x in range(g.n):
        if g.degree(x):
            schur_and_bisection(g, x)


@pytest.mark.parametrize("n, edges", SMALL_GRAPHS.values(), ids=SMALL_GRAPHS)
def test_bisection_agrees_on_small_graphs(n, edges):
    _bisect_every_vertex(build_graph(n, edges))


@given(st.integers(min_value=0, max_value=7), st.data())
@settings(max_examples=50, deadline=None)
def test_bisection_agrees_on_drawn_graphs(n, data):
    edges = [e for e in combinations(range(n), 2) if data.draw(st.booleans())]
    _bisect_every_vertex(build_graph(n, edges))


def test_distance_eigenfunction_refuses_k1():
    # K1 is connected with L = 0, so the eigenvalue 2/L is undefined; the
    # owner of degree 0 refuses it, as every regular-graph verdict does
    with pytest.raises(NoEdges, match="^input graph has no edges$"):
        spectral.verify_distance_eigenfunction(build_graph(1, []), 0)
    assert spectral.verify_distance_eigenfunction(build_graph(2, [(0, 1)]), 0) == (True, None)


def test_only_require_connected_raises_disconnected():
    # connectivity is decided in one place; an internal solver failure is
    # a VerificationError, not a Disconnected
    raisers = []
    for path in sorted(Path(graphs.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                raisers += [
                    f"{path.stem}.{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "Disconnected"
                ]
    assert raisers == ["graphs.require_connected"]
