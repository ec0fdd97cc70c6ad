"""Table reproduction: the mismatch path and the sphere check, its cost and its answer."""

import random
import re
from fractions import Fraction

import curvlab.tables
from curvlab.analysis import GraphAnalysis
from curvlab.cli import main
from curvlab.families import shrikhande
from curvlab.graphs import build_graph, induced_subgraph
from curvlab.isomorphism import find_isomorphism
from curvlab.tables import Sphere, _sphere_cell, compute_table

from helpers import SAMPLE_GRAPHS, random_regular_graph, record_calls, sample_graph

MISMATCH = re.compile(r"MISMATCH (.+) / (.+): expected (.+), got (.+)")

# row -> (theta1, lambda1) of Table 3; b1 - 1 equals theta1 except on Kneser(7,2)
TABLE3_SPECTRA = {
    "(K3)^2": ("1", "3/4"),
    "(K4)^2": ("2", "2/3"),
    "Doob(1,1)": ("5", "4/9"),
    "Kneser(7,2)": ("1", "9/10"),
    "Conway-Smith": ("5", "1/2"),
    "Hall": ("5", "1/2"),
    "J(6,3)": ("3", "2/3"),
    "Q^5_(2)": ("2", "4/5"),
    "Gosset": ("9", "2/3"),
}


def test_wrong_graph_reports_the_failing_cell(capsys, monkeypatch):
    # the Shrikhande graph is cospectral with (K4)^2 and has the same srg
    # parameters, so only the curvature cell tells them apart
    original = curvlab.tables.hamming

    def hamming(n, d):
        return shrikhande() if (n, d) == (4, 2) else original(n, d)

    monkeypatch.setattr(curvlab.tables, "hamming", hamming)
    assert main(["table", "3"]) == 4
    assert capsys.readouterr().err == "MISMATCH (K4)^2 / inf_kappa: expected 2/3, got 1/3\n"


def test_spectral_cells_fail_beyond_tolerance(capsys, monkeypatch):
    # a negative tolerance fails every spectral comparison, exact ones too
    monkeypatch.setattr(curvlab.tables, "SPECTRAL_TOL", -1.0)
    assert main(["table", "3"]) == 4
    lines = capsys.readouterr().err.splitlines()
    found = set()
    for line in lines:
        row, column, want, got = MISMATCH.fullmatch(line).groups()
        # float reprs depend on the BLAS build, so compare values only
        assert abs(float(got) - Fraction(want)) <= 1e-9, line
        found.add((row, column, want))
    expected = set()
    for row, (theta1, lambda1) in TABLE3_SPECTRA.items():
        expected |= {(row, "theta1", theta1), (row, "lambda1", lambda1)}
        if row != "Kneser(7,2)":
            expected.add((row, "theta1=b1-1", theta1))
    assert found == expected and len(lines) == len(expected)


def test_table_1_builds_each_sphere_reference_oracle_once(monkeypatch):
    # 11 row graphs, 11 sphere references and one 1-sphere per row: every
    # row graph is vertex-transitive, so S1(x) is matched at one vertex;
    # cartesian_product computes no oracle, so lattice(3)'s factors get none
    calls = record_calls(monkeypatch, "_kernels", "bfs_all_pairs")
    orbits = record_calls(monkeypatch, "isomorphism", "automorphism_orbits")
    searches = record_calls(monkeypatch, "isomorphism", "find_isomorphism")
    _, diffs = compute_table(1)
    assert not diffs
    assert len(calls) == 11 + 11 + 11
    assert len(orbits) == len(searches) == 11


def _sphere_scan(g, want: Sphere) -> str:
    """The S1(x) cell by matching every vertex's 1-sphere, the reference."""
    reference = want.build()
    for x in range(g.n):
        sphere, _ = induced_subgraph(g, g.adjacency[x])
        if find_isomorphism(sphere, reference) is None:
            return f"S1({x}) is not {want}"
    return want.tag


def test_sphere_cell_matches_full_scan():
    # the reference is S1 of the last vertex, so a failing cell is one that
    # only some 1-spheres match; relabelled copies move the failing vertex
    rng = random.Random(23)
    corpus = [random_regular_graph(n, deg, rng) for n, deg in [(10, 3), (10, 4), (12, 5)] * 2]
    for name in SAMPLE_GRAPHS:
        g = sample_graph(name)
        perm = list(range(g.n))
        rng.shuffle(perm)
        corpus += [g, build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])]
    failed = 0
    for g in corpus:
        reference, _ = induced_subgraph(g, g.adjacency[g.n - 1])
        want = Sphere(f"S1({g.n - 1})", lambda reference=reference: reference)
        cell = _sphere_cell(GraphAnalysis(g), want)
        assert cell == _sphere_scan(g, want)
        failed += cell != want.tag
    assert failed >= 6
