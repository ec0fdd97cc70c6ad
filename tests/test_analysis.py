"""Each per-graph quantity is computed once per command."""

import json
from fractions import Fraction

from curvlab import cli
from curvlab.analysis import GraphAnalysis
from curvlab.cli import main
from curvlab.families import FamilySpec, from_spec, hypercube, johnson
from curvlab.graphs import build_graph
from curvlab.isomorphism import find_isomorphism
from curvlab.report import analyze

from helpers import record_calls


def test_context_computes_each_quantity_once(monkeypatch):
    g = johnson(6, 3)
    kappas = record_calls(monkeypatch, "transport", "kappa")
    bm = record_calls(monkeypatch, "sharpness", "bm_sharpness")
    mu = record_calls(monkeypatch, "sharpness", "mu_graphs_all_cp")
    spectra = record_calls(monkeypatch, "spectral", "spectral_summary")
    ctx = GraphAnalysis(g)
    for _ in range(2):
        for name in ("bm", "edge_kappas", "poles_and_antipoles", "mu_graphs", "spectrum"):
            getattr(ctx, name)
    assert list(ctx.edge_kappas) == g.edges()
    assert (len(kappas), len(bm), len(mu), len(spectra)) == (90, 1, 1, 1)


def test_analyze_one_kappa_per_edge_and_one_oracle(monkeypatch, capsys):
    loaded = []

    def load(text):
        loaded.append(original_load(text))
        return loaded[-1]

    original_load = cli._load_input
    monkeypatch.setattr(cli, "_load_input", load)
    kappas = record_calls(monkeypatch, "transport", "kappa")
    oracles = record_calls(monkeypatch, "_kernels", "bfs_all_pairs")
    assert main(["analyze", "johnson:6:3"]) == 0
    capsys.readouterr()
    (g,) = loaded
    assert g.edge_count == 90
    assert len(kappas) == 90
    assert sorted((x, y) for _, x, y in kappas) == g.edges()
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


def test_bakry_emery_one_schur_pass_per_vertex(monkeypatch, capsys):
    schur = record_calls(monkeypatch, "bakry_emery", "_curvature_schur")
    assert main(["bakry-emery", "hypercube:3"]) == 0
    capsys.readouterr()
    assert sorted(x for _, x in schur) == list(range(8))


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
