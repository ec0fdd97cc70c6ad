"""Each per-graph quantity is computed once per command, and each
precondition is decided by one owner."""

import json
from fractions import Fraction

import pytest

from curvlab import cli
from curvlab.analysis import GraphAnalysis
from curvlab.bakry_emery import conjecture_scan
from curvlab.cli import main
from curvlab.errors import Disconnected, NoEdges, NotRegular
from curvlab.families import FamilySpec, from_spec, hypercube, johnson
from curvlab.graphs import build_graph, degree_triple, poles_and_antipoles
from curvlab.isomorphism import find_isomorphism
from curvlab.report import analyze
from curvlab.sharpness import (
    degree_recursions,
    interval_cover_check,
    is_strongly_spherical,
    mu_graphs_all_cp,
    pole_facts,
    ssp_ncp,
    unique_antipole_check,
)
from curvlab.spectral import spectral_summary, verify_distance_eigenfunction
from curvlab.transport import (
    Measure,
    TransportPlan,
    geodesic_between,
    idle_measure,
    interval_antipole,
    kappa,
    kappa_p,
    tpm_transport_map,
    transport_geodesic,
    wasserstein,
)

from helpers import be_upper_bound, record_calls


def test_context_computes_each_quantity_once(monkeypatch):
    g = johnson(6, 3)
    kappas = record_calls(monkeypatch, "transport", "kappas")
    bm = record_calls(monkeypatch, "sharpness", "bm_sharpness")
    mu = record_calls(monkeypatch, "sharpness", "mu_graphs_all_cp")
    spectra = record_calls(monkeypatch, "spectral", "spectral_summary")
    ctx = GraphAnalysis(g)
    for _ in range(2):
        for name in ("bm", "edge_kappas", "poles_and_antipoles", "mu_graphs", "spectrum"):
            getattr(ctx, name)
    assert list(ctx.edge_kappas) == g.edges()
    assert (len(kappas), len(bm), len(mu), len(spectra)) == (1, 1, 1, 1)


def test_analyze_one_kappa_per_edge_and_one_oracle(monkeypatch, capsys):
    loaded = []

    def load(text):
        loaded.append(original_load(text))
        return loaded[-1]

    original_load = cli._load_input
    monkeypatch.setattr(cli, "_load_input", load)
    kappas = record_calls(monkeypatch, "transport", "kappas")
    oracles = record_calls(monkeypatch, "_kernels", "bfs_all_pairs")
    assert main(["analyze", "johnson:6:3"]) == 0
    capsys.readouterr()
    (g,) = loaded
    assert g.edge_count == 90
    # one kappas call, for every edge once, in g.edges() order
    ((graph, pairs),) = kappas
    assert graph is g and list(pairs) == g.edges()
    assert sum(1 for args in oracles if args[0] is g.dense_adjacency) == 1


def test_analyze_product_one_oracle_per_graph(monkeypatch):
    # one oracle for the input and one for the classification candidate,
    # which the isomorphism search reads from its cache; cartesian_product
    # computes none, so the four factors get none
    spec = FamilySpec(
        "product", factors=(FamilySpec("johnson", (6, 3)), FamilySpec("cocktailparty", (4,)))
    )
    oracles = record_calls(monkeypatch, "_kernels", "bfs_all_pairs")
    report = analyze(from_spec(spec), skip_be=True, skip_spherical=True)
    assert report["classification"]["reason"] == "matched"
    adjacencies = {id(args[0]) for args in oracles}
    assert len(adjacencies) == len(oracles) == 2


def test_bakry_emery_one_closed_form_pass_per_vertex(monkeypatch, capsys):
    # every vertex appears in exactly one stacked sweep, and each sweep
    # builds its curvature matrices in one call on its stack
    sweeps = record_calls(monkeypatch, "bakry_emery", "_sweep")
    matrices = record_calls(monkeypatch, "bakry_emery", "_curvature_matrices")
    assert main(["bakry-emery", "hypercube:3"]) == 0
    capsys.readouterr()
    assert sorted(x for _, vertices, _ in sweeps for x in vertices) == list(range(8))
    assert [id(adj) for adj, in matrices] == [id(adj) for _, _, adj in sweeps]


def test_bakry_emery_counts_each_vertex_triangles_once(monkeypatch, capsys):
    # each sweep counts its block's triangles in one call on its stack, and
    # the conjecture scan reads its weak bound off the rows' upper bounds
    sweeps = record_calls(monkeypatch, "bakry_emery", "_sweep")
    stacked = record_calls(monkeypatch, "bakry_emery", "_triangles")
    per_vertex = record_calls(monkeypatch, "graphs", "triangle_count_vertex")
    assert main(["bakry-emery", "hypercube:3"]) == 0
    capsys.readouterr()
    assert sorted(x for _, vertices, _ in sweeps for x in vertices) == list(range(8))
    assert [id(adj) for adj, in stacked] == [id(adj) for _, _, adj in sweeps]
    assert per_vertex == []


def test_curvature_plan_one_w1_solve(monkeypatch, capsys):
    solves = record_calls(monkeypatch, "transport", "wasserstein")
    assert main(["curvature", "hypercube:3", "0", "7", "--p", "1/2", "--plan"]) == 0
    value_line, plan_line = capsys.readouterr().out.splitlines()
    assert value_line == "kappa_1/2(0,7) = 1/3 (assignment)"
    entries = json.loads(plan_line)["entries"]
    # the plan moves W1 = (1 - 1/3) * d(0, 7) = 2; Q3 distance is the Hamming weight
    assert sum(Fraction(m) * bin(u ^ v).count("1") for u, v, m in entries) == 2
    assert len(solves) == 1


def test_find_isomorphism_one_oracle_per_graph(monkeypatch):
    g = hypercube(3)
    perm = [3, 6, 0, 5, 7, 1, 4, 2]
    h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    oracles = record_calls(monkeypatch, "_kernels", "bfs_all_pairs")
    assert find_isomorphism(g, h) is not None
    assert find_isomorphism(h, g) is not None
    (first,), (second,) = oracles
    assert first is g.dense_adjacency and second is h.dense_adjacency


@pytest.mark.parametrize(
    "argv, searches",
    [
        (["analyze", "hypercube:3"], 1),
        (["analyze", "hypercube:3", "--skip-spherical"], 0),
        # the S1(x) column matches one vertex per orbit in each of 11 rows
        (["table", "1"], 11),
        (["classify", "johnson:6:3"], 0),
        # both fail the whole-graph antipodality check
        (["analyze", "shrikhande"], 0),
        (["analyze", "chang1"], 0),
    ],
)
def test_automorphism_search_only_for_the_interval_scan(monkeypatch, capsys, argv, searches):
    orbits = record_calls(monkeypatch, "isomorphism", "automorphism_orbits")
    assert main(argv) == 0
    capsys.readouterr()
    assert len(orbits) == searches


# Every public entry point that needs a connected graph, or a regular one
# (of degree at least one); the predicates that take a GraphAnalysis are
# covered by its constructor.
NEEDS_CONNECTED = {
    "GraphAnalysis": GraphAnalysis,
    "analyze": analyze,
    "kappa": lambda g: kappa(g, 0, 1),
    "kappa_p": lambda g: kappa_p(g, 0, 1, Fraction(1, 2)),
    "wasserstein": lambda g: wasserstein(g, idle_measure(g, 0, 0), idle_measure(g, 1, 0)),
    "poles_and_antipoles": poles_and_antipoles,
    "interval_cover_check": interval_cover_check,
    "unique_antipole_check": unique_antipole_check,
    "pole_facts": lambda g: pole_facts(g, 0),
    "degree_recursions": lambda g: degree_recursions(g, 0),
    "is_strongly_spherical": is_strongly_spherical,
    "mu_graphs_all_cp": mu_graphs_all_cp,
    "spectral_summary": spectral_summary,
    "verify_distance_eigenfunction": lambda g: verify_distance_eigenfunction(g, 0),
    "conjecture_scan": lambda g: conjecture_scan(g, []),
    "degree_triple": lambda g: degree_triple(g, 0, g.n - 1),
    "geodesic_between": lambda g: geodesic_between(g, 0, g.n - 1),
    "interval_antipole": lambda g: interval_antipole(g, 0, g.n - 1, 1),
    "TransportPlan.cost": lambda g: TransportPlan(
        ((0, g.n - 1, Fraction(1)),), Measure.from_dict({0: 1}), Measure.from_dict({g.n - 1: 1})
    ).cost(g),
    "transport_geodesic": lambda g: transport_geodesic(g, (0, 1), 0),
    "ssp_ncp": lambda g: ssp_ncp(g, 0),
}
NEEDS_BOTH = (
    "GraphAnalysis", "analyze", "kappa", "kappa_p", "pole_facts",
    "degree_recursions", "conjecture_scan", "transport_geodesic", "ssp_ncp",
)
NEEDS_REGULAR = {
    **{name: NEEDS_CONNECTED[name] for name in NEEDS_BOTH},
    "tpm_transport_map": lambda g: tpm_transport_map(g, 0, 1, {}),
    "be_upper_bound": lambda g: be_upper_bound(g, 0),
}
TWO_TRIANGLES = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])  # 2K3
PATH = build_graph(4, [(0, 1), (1, 2), (2, 3)])  # P4
EDGE_AND_POINT = build_graph(3, [(0, 1)])  # K2 + K1: disconnected and irregular
POINT = build_graph(1, [])  # K1: connected and regular of degree 0


@pytest.mark.parametrize("call", NEEDS_CONNECTED.values(), ids=NEEDS_CONNECTED)
def test_disconnected_regular_graph_raises_disconnected(call):
    with pytest.raises(Disconnected, match="^input graph is disconnected$"):
        call(TWO_TRIANGLES)


@pytest.mark.parametrize("call", NEEDS_REGULAR.values(), ids=NEEDS_REGULAR)
def test_connected_irregular_graph_raises_not_regular(call):
    with pytest.raises(NotRegular, match="^input graph is not regular$"):
        call(PATH)


@pytest.mark.parametrize("name", NEEDS_BOTH)
def test_connectivity_is_checked_before_regularity(name):
    with pytest.raises(Disconnected, match="^input graph is disconnected$"):
        NEEDS_CONNECTED[name](EDGE_AND_POINT)


@pytest.mark.parametrize("call", NEEDS_REGULAR.values(), ids=NEEDS_REGULAR)
def test_regular_graph_of_degree_zero_raises_no_edges(call):
    # GraphAnalysis among them: every verdict of the paper divides by D or L
    with pytest.raises(NoEdges, match="^input graph has no edges$"):
        call(POINT)


# the connected-graph entry points that ask for antipoles, which K1 (L = 0)
# does not have: its vertex would be its own antipole
ASKS_FOR_ANTIPOLES = ("poles_and_antipoles", "interval_cover_check", "unique_antipole_check")


@pytest.mark.parametrize("name", ASKS_FOR_ANTIPOLES)
def test_antipole_questions_refuse_k1(name):
    with pytest.raises(NoEdges, match="^input graph has no edges$"):
        NEEDS_CONNECTED[name](POINT)
    NEEDS_CONNECTED[name](build_graph(2, [(0, 1)]))  # K2 is answered
