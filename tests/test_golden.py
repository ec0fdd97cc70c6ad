"""CLI output, byte for byte, against files captured from earlier releases."""

from pathlib import Path

import pytest

from curvlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "analyze_hypercube_4.txt": ["analyze", "hypercube:4"],
    "analyze_cocktailparty_4.txt": ["analyze", "cocktailparty:4"],
    "analyze_shrikhande.txt": ["analyze", "shrikhande"],
    "analyze_johnson_6_3.txt": ["analyze", "johnson:6:3"],
    "analyze_kneser_5_2.txt": ["analyze", "kneser:5:2"],
    "bakry_emery_hypercube_3.txt": ["bakry-emery", "hypercube:3"],
    "table_1.txt": ["table", "1", "--json"],
    "table_2.txt": ["table", "2", "--json"],
    "table_3.txt": ["table", "3", "--json"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
