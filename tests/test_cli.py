"""CLI: subcommand behaviour, exit codes, deterministic output."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from curvlab import cli, graphs
from curvlab.cli import main
from curvlab.errors import InputError
from curvlab.families import FAMILIES
from curvlab.graph6 import decode_graph6, encode_graph6

from helpers import record_calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_import_loads(*packages: str) -> str:
    """The printed sorted list of modules of ``packages`` that a fresh
    interpreter has loaded after ``import curvlab.cli``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys, curvlab.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    )
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout


def test_import_pulls_in_no_scipy_or_numba():
    # every CLI command is a fresh process, and importing scipy.optimize
    # takes longer than all the rest of start-up
    out = _cli_import_loads("scipy", "numba")
    assert out.strip() == "[]"


def test_import_pulls_in_no_multiprocessing():
    # every command computes in the one process that parses its arguments
    out = _cli_import_loads("multiprocessing")
    assert out.strip() == "[]"


def test_every_public_name_resolves():
    import curvlab

    assert [name for name in curvlab.__all__ if not hasattr(curvlab, name)] == []
    assert len(set(curvlab.__all__)) == len(curvlab.__all__)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{tmp}"],
        ["gen", "hypercube", "2", "-o", "{tmp}/missing/x.g6"],
        ["analyze", "hypercube:2", "-o", "{tmp}/missing/x.json"],
    ],
    ids=["read-directory", "gen-write", "analyze-write"],
)
def test_os_error_exit2(tmp_path, capsys, argv):
    # an unreadable input or an unwritable -o path was a traceback and exit 1
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("parent", ["missing", "file"])
def test_analyze_refuses_output_path_before_the_analysis(tmp_path, capsys, monkeypatch, parent):
    def analyze(*args, **kwargs):
        raise AssertionError("analyze ran before the -o path was checked")

    (tmp_path / "file").write_text("")
    out = str(tmp_path / parent / "x.json")
    monkeypatch.setattr(cli, "analyze", analyze)
    with pytest.raises(InputError) as late:
        cli._emit("", out)
    assert run(capsys, "analyze", "hypercube:2", "-o", out) == (2, "", f"error: {late.value}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "johnson:6:3", "0", "99"],
        ["curvature", "johnson:6:3", "0", "--", "-1"],
        ["bakry-emery", "johnson:6:3", "--vertex", "20"],
        ["bakry-emery", "johnson:6:3", "--vertex", "-1"],
        ["transport-geodesic", "johnson:6:3", "--path", "0,1", "--z", "99"],
        ["transport-geodesic", "johnson:6:3", "--path=-1,0", "--z", "0"],
    ],
    ids=["curvature-99", "curvature-neg", "be-20", "be-neg", "geodesic-z", "geodesic-path"],
)
def test_vertex_out_of_range_exit2(capsys, argv):
    # a negative id would otherwise index from the end of a numpy array
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "outside [0,20)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "complete:1"],
        ["classify", "complete:1"],
        ["analyze", "complete:1"],
        ["curvature", "complete:1", "--all-edges"],
        ["bakry-emery", "complete:1"],
        ["bakry-emery", "complete:1", "--vertex", "0"],
    ],
    ids=["sharpness", "classify", "analyze", "curvature", "be", "be-vertex"],
)
def test_edgeless_graph_exit3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        ["analyze"],
        ["curvature", "0", "1"],
        ["curvature", "--all-edges"],
        ["spectral"],
        ["sharpness"],
        ["classify"],
        ["bakry-emery"],
        ["bakry-emery", "--vertex", "0"],
    ],
    ids=["analyze", "curvature", "all-edges", "spectral", "sharpness", "classify", "be", "be-vertex"],
)
def test_graph_without_vertices_is_disconnected_exit3(tmp_path, capsys, command):
    # a connected graph has exactly one component, and this one has none
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "edges": []}))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 3 and out == "" and err == "error: input graph is disconnected\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "johnson:5:2", "--all-edges"],
        ["bakry-emery", "hypercube:3"],
        ["table", "1"],
    ],
    ids=["curvature", "be", "table"],
)
def test_jobs_is_refused_exit2(capsys, argv):
    # every command computes in the one process that parses its arguments
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --jobs 2" in captured.err


@pytest.mark.parametrize("text", ["abc", "1/0"], ids=["not-a-number", "zero-denominator"])
def test_bad_idleness_exit2(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["curvature", "hypercube:3", "0", "1", "--p", text])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --p" in captured.err


@pytest.mark.parametrize(
    "flags", [["--p", "1/2"], ["--plan"], ["0", "1"]], ids=["p", "plan", "pair"]
)
def test_all_edges_rejects_pair_flags_exit2(capsys, flags):
    # --all-edges prints plain kappa on every edge, so a pair or a pair flag
    # there is a usage error; the pair must precede --all-edges, or argparse
    # rejects it as unrecognized before curvlab sees it
    code, out, err = run(capsys, "curvature", "hypercube:3", *flags, "--all-edges")
    assert code == 2 and out == "" and "--all-edges" in err


@given(st.text(alphabet="0123456789/.+-_eE x", max_size=12) | st.text(max_size=12))
@settings(max_examples=150, deadline=None)
@example("0.5")
@example("-1/2")
@example("1e999999999")
@example("1/" + "7" * 200)
@example("--")
def test_any_idleness_text_exits_cleanly(text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["curvature", "cocktailparty:3", "0", "2", f"--p={text}"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_huge_vertex_count_exit2(tmp_path, capsys):
    # 30 bytes naming ten billion vertices; refused before any allocation
    path = tmp_path / "huge.json"
    path.write_text('{"n": 10000000000, "edges": []}')
    code, out, err = run(capsys, "spectral", str(path))
    assert code == 2 and out == "" and "MAX_VERTICES" in err


class TestGen:
    def test_hypercube_file(self, tmp_path, capsys):
        out = tmp_path / "q4.g6"
        code, _, _ = run(capsys, "gen", "hypercube", "4", "-o", str(out))
        assert code == 0
        g = decode_graph6(out.read_text().strip())
        assert g.n == 16 and g.is_regular() == 4

    def test_product(self, tmp_path, capsys):
        out = tmp_path / "p.g6"
        code, _, _ = run(
            capsys, "gen", "product", "johnson:6:3", "cocktailparty:4", "-o", str(out)
        )
        assert code == 0
        assert decode_graph6(out.read_text().strip()).n == 160

    def test_gosset_vertex_count(self, tmp_path, capsys):
        out = tmp_path / "g.g6"
        assert run(capsys, "gen", "gosset", "-o", str(out))[0] == 0
        assert decode_graph6(out.read_text().strip()).n == 56

    def test_bad_param_exit2(self, capsys):
        code, _, err = run(capsys, "gen", "hypercube", "0")
        assert code == 2 and "error" in err

    def test_roundtrip_reencode_bit_exact(self, tmp_path, capsys):
        out = tmp_path / "j.g6"
        run(capsys, "gen", "johnson", "6", "3", "-o", str(out))
        text = out.read_text().strip()
        assert encode_graph6(decode_graph6(text)) == text

    @pytest.mark.parametrize(
        "spec,refusal",
        [
            (["hypercube", "40"], "MAX_VERTICES = 100000 vertices"),
            (["hamming", "10", "10"], "MAX_VERTICES = 100000 vertices"),
            (["product", "hypercube:10", "hypercube:10"], "MAX_VERTICES = 100000 vertices"),
            (["complete", "100000"], "MAX_EDGES = 1000000 edges"),
            (["kneser", "5000", "1"], "MAX_EDGES = 1000000 edges"),
        ],
        ids=["hypercube-40", "hamming-10-10", "product-q10-q10", "complete-100000", "kneser-5000-1"],
    )
    def test_vertex_count_refused_before_any_generator(self, monkeypatch, capsys, spec, refusal):
        built = record_calls(monkeypatch, "graphs", "build_graph")
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", *spec)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == "" and f"more than {refusal}" in err
        assert built == []

    @pytest.mark.parametrize(
        "spec,refusal",
        [
            (["doob", "-1", "1"], "doob needs n >= 0 and m >= 1, got (-1,1)"),
            (["lattice", "1"], "lattice needs n >= 2, got 1"),
        ],
        ids=["doob-negative", "lattice-1"],
    )
    def test_composite_params_refused_exit2(self, capsys, spec, refusal):
        code, out, err = run(capsys, "gen", *spec)
        assert code == 2 and out == "" and err == f"error: {refusal}\n"

    def test_hamming_of_one_vertex_refused(self, capsys):
        # (K_1)^d has one vertex for every d but takes d - 1 products to build
        code, out, err = run(capsys, "gen", "hamming", "1", "1000000000")
        assert code == 2 and out == "" and "hamming needs n >= 2" in err


FUZZ_CAP = 200
FAMILY_NAMES = sorted(FAMILIES) + ["product", "Cocktail-Party", "demi_cube", "nosuch", ""]
FUZZ_PARAM = st.integers(-2, 12) | st.integers() | st.text(alphabet="0123456789:x -", max_size=4)


def _spec_text(name: str, params: list) -> str:
    return ":".join([name, *map(str, params)])


# well-formed specs: a known family with its own number of small parameters
FUZZ_VALID_SPEC = st.sampled_from(sorted(FAMILIES)).flatmap(
    lambda name: st.builds(
        _spec_text, st.just(name), st.lists(st.integers(0, 9), min_size=FAMILIES[name][1],
                                             max_size=FAMILIES[name][1])
    )
)
FUZZ_SPEC = FUZZ_VALID_SPEC | st.builds(
    _spec_text, st.sampled_from(FAMILY_NAMES), st.lists(FUZZ_PARAM, max_size=3)
)
FUZZ_GEN_ARGS = st.one_of(
    FUZZ_VALID_SPEC.map(lambda text: text.split(":")),
    st.lists(FUZZ_VALID_SPEC, min_size=2, max_size=3).map(lambda specs: ["product", *specs]),
    st.builds(lambda name, params: [name, *map(str, params)],
              st.sampled_from(FAMILY_NAMES), st.lists(FUZZ_PARAM, max_size=3)),
    st.lists(FUZZ_SPEC, max_size=3).map(lambda specs: ["product", *specs]),
    st.lists(FUZZ_SPEC | st.text(max_size=8), max_size=3),
)


@given(FUZZ_GEN_ARGS, st.booleans())
@settings(max_examples=300, deadline=None)
@example(["hypercube", "40"], False)
@example(["hamming", "1", str(10**12)], False)
@example(["product", "hypercube:40", "complete:0"], False)
@example(["product", "complete:0", "hypercube:40"], True)
@example(["johnson", str(10**30), str(5 * 10**29)], False)
@example(["doob", "0", str(10**15)], False)
@example(["kneser", "4", "2"], True)
@example(["product", "hypercube:4", "cocktailparty:5"], False)
def test_any_gen_spec_exits_cleanly(args, as_json):
    # family parameters may name any size; the cap is lowered, and read at
    # call time, so no generator ever starts on a graph above it
    args = [a for a in args if not a.startswith(("-o", "--o", "-h", "--h"))]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "MAX_VERTICES", FUZZ_CAP)
        built = record_calls(mp, "graphs", "build_graph")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(["gen", *args, *(["--json"] if as_json else [])])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert all(n <= FUZZ_CAP for n, *_ in built), (args, [n for n, *_ in built])
    if code == 0:
        text = out.getvalue()
        n = json.loads(text)["n"] if as_json else decode_graph6(text.strip()).n
        assert n <= FUZZ_CAP


@st.composite
def _graph_walk_and_z(draw):
    """A graph on at most 8 vertices (often a disjoint union), a random walk
    in it and a vertex z, which may lie outside [0, n)."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    nbrs = {v: sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v})
            for v in range(n)}
    walk = [draw(st.integers(0, n - 1))]
    for _ in range(draw(st.integers(0, 4))):
        if not nbrs[walk[-1]]:
            break
        walk.append(draw(st.sampled_from(nbrs[walk[-1]])))
    return n, edges, walk, draw(st.integers(-1, n))


@given(_graph_walk_and_z())
@settings(max_examples=200, deadline=None)
@example((4, [(0, 1), (2, 3)], [0, 1], 2))
def test_any_transport_geodesic_exits_cleanly(tmp_path_factory, case):
    n, edges, walk, z = case
    path = tmp_path_factory.getbasetemp() / "geodesic.json"
    path.write_text(json.dumps({"n": n, "edges": edges}))
    argv = ["transport-geodesic", str(path), f"--path={','.join(map(str, walk))}", f"--z={z}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (case, err.getvalue())
    assert "Traceback" not in err.getvalue()


class TestAnalyze:
    def test_q3_report(self, tmp_path, capsys):
        code, out, _ = run(capsys, "analyze", "hypercube:3", "--skip-be", "--name", "Q3")
        assert code == 0
        doc = json.loads(out)
        assert doc["bm_sharp"] is True
        assert doc["inf_kappa"] == "2/3"
        assert doc["classification"]["matched"] == {"family": "hypercube", "params": [3]}

    def test_shrikhande_not_lich_sharp(self, capsys):
        code, out, _ = run(capsys, "analyze", "shrikhande", "--skip-be", "--skip-spherical")
        doc = json.loads(out)
        assert code == 0 and doc["lichnerowicz_sharp"] is False

    def test_chang_fixture(self, capsys):
        code, out, _ = run(capsys, "analyze", "chang1", "--skip-be", "--skip-spherical")
        doc = json.loads(out)
        assert code == 0
        assert doc["inf_kappa"] == "1/3"
        assert abs(float(doc["lambda1"]) - 2 / 3) < 1e-9

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "analyze", "cocktailparty:3")
        _, out2, _ = run(capsys, "analyze", "cocktailparty:3")
        assert out1 == out2

    def test_disconnected_exit3(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
        code, _, _ = run(capsys, "analyze", str(path))
        assert code == 3

    def test_hall_has_no_lambda_m(self, capsys):
        # 2D/L - 2 = 20/3 - 2 = 14/3 is not an integer, so there is no m to check
        code, out, _ = run(capsys, "analyze", "hall", "--skip-be", "--skip-spherical")
        assert code == 0 and json.loads(out)["lambda_m"] == {"m": None, "holds": False}

    def test_parse_error_exit2(self, tmp_path, capsys):
        path = tmp_path / "junk.g6"
        path.write_text("\x01\x02junk\n")
        code, _, _ = run(capsys, "analyze", str(path))
        assert code == 2


class TestCurvature:
    def test_gosset_edge(self, capsys):
        code, out, _ = run(capsys, "curvature", "gosset", "0", "1")
        assert code == 0 and "2/3 (matching)" in out

    def test_q4_antipodal(self, capsys):
        code, out, _ = run(capsys, "curvature", "hypercube:4", "0", "15")
        assert code == 0 and "1/2" in out

    def test_k3_edge(self, capsys):
        code, out, _ = run(capsys, "curvature", "complete:3", "0", "1")
        assert code == 0 and "3/2" in out

    def test_all_edges_inf(self, capsys):
        code, out, _ = run(capsys, "curvature", "cocktailparty:3", "--all-edges")
        assert code == 0 and out.strip().endswith("inf = 1")

    def test_plan_dump(self, capsys):
        code, out, _ = run(capsys, "curvature", "hypercube:3", "0", "1", "--plan")
        assert code == 0
        plan_line = out.strip().splitlines()[-1]
        doc = json.loads(plan_line)
        assert all(len(e) == 3 for e in doc["entries"])

    def test_kappa_p(self, capsys):
        code, out, _ = run(capsys, "curvature", "cocktailparty:3", "0", "2", "--p", "1/5")
        assert code == 0 and "4/5" in out

    def test_missing_pair_exit2(self, capsys):
        code, out, err = run(capsys, "curvature", "gosset")
        assert code == 2 and out == "" and err == "error: curvature needs x and y (or --all-edges)\n"

    def test_non_regular_exit3(self, tmp_path, capsys):
        path = tmp_path / "p3.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        code, _, _ = run(capsys, "curvature", str(path), "0", "1")
        assert code == 3


class TestSpectralCmd:
    def test_petersen(self, capsys):
        code, out, _ = run(capsys, "spectral", "kneser:5:2")
        doc = json.loads(out)
        assert code == 0
        assert abs(float(doc["lambda1"]) - 2 / 3) < 1e-9
        assert len(doc["laplacian_spectrum"]) == 10


class TestBakryEmeryCmd:
    def test_single_vertex(self, capsys):
        code, out, _ = run(capsys, "bakry-emery", "complete:4", "--vertex", "0")
        doc = json.loads(out)
        assert code == 0 and abs(float(doc["curvature"]) - 1.0) < 1e-7

    def test_all(self, capsys):
        code, out, _ = run(capsys, "bakry-emery", "hypercube:3")
        doc = json.loads(out)
        assert code == 0 and len(doc["rows"]) == 8
        assert doc["conjecture"]["holds"] is True

    def test_disconnected_exit3(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"n": 6, "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]}))
        code, out, err = run(capsys, "bakry-emery", str(path))
        assert code == 3 and out == "" and err == "error: input graph is disconnected\n"


class TestSharpnessCmd:
    def test_q3(self, capsys):
        code, out, _ = run(capsys, "sharpness", "hypercube:3")
        doc = json.loads(out)
        assert code == 0 and doc["bm_sharp"] is True


class TestClassifyCmd:
    def test_octahedron(self, capsys):
        code, out, _ = run(capsys, "classify", "cocktailparty:3")
        doc = json.loads(out)
        assert code == 0 and doc["matched"]["family"] == "cocktailparty"


class TestTransportGeodesicCmd:
    def test_q3(self, capsys):
        code, out, _ = run(
            capsys, "transport-geodesic", "hypercube:3", "--path", "0,1,3,7", "--z", "0"
        )
        doc = json.loads(out)
        assert code == 0 and doc["length"] == 2

    def test_bad_path_exit2(self, capsys):
        code, out, err = run(
            capsys, "transport-geodesic", "hypercube:3", "--path", "0,a", "--z", "0"
        )
        assert code == 2 and out == "" and err == "error: bad path '0,a'\n"

    def test_short_path_exit3(self, capsys):
        code, _, _ = run(
            capsys, "transport-geodesic", "hypercube:3", "--path", "0,1", "--z", "0"
        )
        assert code == 3

    def test_z_in_another_component_exit3(self, tmp_path, capsys):
        # 2K2 is disconnected, so its geodesic is refused before z is read
        path = tmp_path / "2k2.json"
        path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
        code, out, err = run(capsys, "transport-geodesic", str(path), "--path", "0,1", "--z", "2")
        assert (code, out) == (3, "")
        assert err == "error: input graph is disconnected\n"
        # on a connected graph, a z outside the 1-ball of the start is refused
        code, out, err = run(
            capsys, "transport-geodesic", "hypercube:3", "--path", "0,1,3,7", "--z", "7"
        )
        assert (code, out) == (3, "")
        assert err == "error: 7 is not in the 1-ball of 0\n"

    def test_graph_preconditions_before_vertex_ids(self, tmp_path, capsys):
        # as in ``curvature``: K1 has no vertex 1, but its missing edges are
        # refused first, and so is the graph with no vertex at all
        for n, want in ((1, "error: input graph has no edges\n"), (0, "error: input graph is disconnected\n")):
            path = tmp_path / f"k{n}.json"
            path.write_text(json.dumps({"n": n, "edges": []}))
            code, out, err = run(capsys, "transport-geodesic", str(path), "--path", "0,1", "--z", "0")
            assert (code, out, err) == (3, "", want)
        # on a connected regular graph an unknown vertex is still exit 2
        code, _, err = run(capsys, "transport-geodesic", "hypercube:3", "--path", "0,8", "--z", "0")
        assert (code, err) == (2, "error: vertex 8 outside [0,8)\n")

    def test_suboptimal_assignment_fails_its_certificate(self, monkeypatch, capsys):
        # a kernel that answers each problem with its assignment reversed:
        # on the edge (0, 1) of Q3 that moves two atoms over distance 3
        # instead of 1, and its potentials no longer sum to the total
        from curvlab import _kernels

        solve = _kernels.hungarian

        def reversed_assignment(cost):
            row_to_col, u, v = solve(cost)
            return row_to_col[:, ::-1], u, v

        monkeypatch.setattr(_kernels, "hungarian", reversed_assignment)
        code, out, err = run(capsys, "curvature", "hypercube:3", "0", "1")
        assert (code, out) == (4, "")
        assert err == "error: an assignment failed its dual certificate\n"


    def test_flow_with_wrong_potentials_fails_its_certificate(self, monkeypatch, capsys):
        # the lazy measures of an edge have unequal atoms, so W1 is a flow;
        # one sink potential raised by 1 makes a tight arc into it negative
        from curvlab import transport

        certify = transport._certify_flow

        def shifted(cost, supply, demand, flow, phi_s, phi_t, total):
            certify(cost, supply, demand, flow, phi_s, [phi_t[0] + 1, *phi_t[1:]], total)

        monkeypatch.setattr(transport, "_certify_flow", shifted)
        code, out, err = run(capsys, "curvature", "gosset", "0", "1", "--p", "1/2")
        assert (code, out) == (4, "")
        assert err == "error: a transportation flow failed its dual certificate\n"

class TestTableCmd:
    @pytest.mark.parametrize("table_id", ["1", "2", "3"])
    def test_tables_verify(self, capsys, table_id):
        code, out, _ = run(capsys, "table", table_id)
        assert code == 0
        assert f"table {table_id}: all cells verified" in out
