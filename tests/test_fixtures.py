"""Bundled fixture integrity: parameters and spectra, the script that
builds the files, plus the env override."""

import importlib.util
from pathlib import Path

import pytest

import curvlab.fixtures
from curvlab.errors import FormatError
from curvlab.fixtures import FIXTURE_NAMES, load_fixture
from curvlab.graph6 import encode_graph6
from curvlab.graphs import distances, induced_subgraph, intersection_array, is_strongly_regular
from curvlab.isomorphism import find_isomorphism
from curvlab.families import johnson, kneser


def test_all_fixtures_load():
    for name in FIXTURE_NAMES:
        g = load_fixture(name)
        assert g.n in (28, 63, 65)


@pytest.mark.parametrize("name", ["chang1", "chang2", "chang3"])
def test_chang_parameters(name):
    g = load_fixture(name)
    p = is_strongly_regular(g)
    assert (p.nu, p.k, p.lam, p.mu) == (28, 12, 6, 4)


def test_chang_mutually_distinct():
    graphs = [load_fixture(f"chang{i}") for i in (1, 2, 3)] + [johnson(8, 2)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert find_isomorphism(graphs[i], graphs[j]) is None


def test_conway_smith_structure():
    g = load_fixture("conway_smith")
    d = distances(g)
    assert (g.n, g.is_regular(), d.diameter) == (63, 10, 4)
    assert intersection_array(g) == ((10, 6, 4, 1), (1, 2, 6, 10))
    sphere, _ = induced_subgraph(g, g.adjacency[0])
    assert find_isomorphism(sphere, kneser(5, 2)) is not None


def test_hall_structure():
    g = load_fixture("hall")
    d = distances(g)
    assert (g.n, g.is_regular(), d.diameter) == (65, 10, 3)
    assert intersection_array(g) == ((10, 6, 4), (1, 2, 5))
    sphere, _ = induced_subgraph(g, g.adjacency[0])
    assert find_isomorphism(sphere, kneser(5, 2)) is not None


def test_make_fixtures_reproduces_bundled_files():
    # build_fixtures runs every construction and verify_* check of the script;
    # its main(), which writes into the package, is not called
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    built = script.build_fixtures()
    assert tuple(built) == FIXTURE_NAMES
    bundled = Path(curvlab.fixtures.__file__).resolve().parent
    for name, g in built.items():
        assert (bundled / f"{name}.g6").read_bytes() == (encode_graph6(g) + "\n").encode()


def test_unknown_fixture():
    with pytest.raises(FormatError):
        load_fixture("nonexistent")


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CURVLAB_FIXTURES", str(tmp_path))
    with pytest.raises(FormatError):
        load_fixture("chang1")
