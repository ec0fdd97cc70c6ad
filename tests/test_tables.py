"""Table reproduction: the mismatch path and the cost of the sphere check."""

import re
from fractions import Fraction

import curvlab.tables
from curvlab.cli import main
from curvlab.families import shrikhande
from curvlab.tables import compute_table

from helpers import record_calls

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
    # 11 row graphs, 6 sphere references and the 132 1-spheres of the rows
    # whose reference has edges (an edgeless one is matched by counting);
    # cartesian_product computes no oracle, so lattice(3)'s factors get none,
    # and an oracle per vertex for the reference would add 132 more
    calls = record_calls(monkeypatch, "_kernels", "bfs_all_pairs")
    _, diffs = compute_table(1)
    assert not diffs
    assert len(calls) == 11 + 6 + 132
