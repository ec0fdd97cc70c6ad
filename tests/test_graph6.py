"""graph6 codec and JSON edge-list format."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from curvlab.cli import main
from curvlab.errors import FormatError
from curvlab.graph6 import (
    decode_graph6,
    encode_graph6,
    graph_from_json,
    graph_to_json,
    load_graph,
)
from curvlab.graphs import build_graph
from curvlab.families import complete, hypercube

from helpers import record_calls


def test_known_encodings():
    # K4: six upper-triangle 1-bits -> 111111 = 63 -> '~'
    assert encode_graph6(complete(4)) == "C~"
    # empty graph on 5 vertices: ten 0-bits -> two groups of '?'
    assert encode_graph6(build_graph(5, [])) == "D??"
    # 5-cycle 0-2-3-1-4-0: column-order bits 010011 110000 -> 'R','o'
    c5 = build_graph(5, [(0, 2), (0, 4), (1, 3), (1, 4), (2, 3)])
    assert encode_graph6(c5) == "DRo"


def test_header_stripped():
    s = encode_graph6(hypercube(3))
    assert decode_graph6(">>graph6<<" + s).adjacency == hypercube(3).adjacency


def test_invalid_characters_rejected():
    with pytest.raises(FormatError):
        decode_graph6("C\x1c~")
    with pytest.raises(FormatError):
        decode_graph6("")


def test_wrong_length_rejected():
    with pytest.raises(FormatError):
        decode_graph6("C~~")


def test_nonzero_padding_rejected():
    # K2 is 'A_' (bit 1 then five zero pads); 'A' + chr(63+1) has a pad bit set
    assert encode_graph6(complete(2)) == "A_"
    with pytest.raises(FormatError):
        decode_graph6("A" + chr(63 + 1))


@given(st.integers(min_value=0, max_value=40), st.data())
@settings(max_examples=150, deadline=None)
def test_roundtrip(n, data):
    # the upper triangle in one draw: one draw per pair costs seconds
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [pair for pair, bit in zip(pairs, bits) if bit])
    assert decode_graph6(encode_graph6(g)).adjacency == g.adjacency


def test_large_n_roundtrip():
    g = build_graph(100, [(i, i + 1) for i in range(99)])
    s = encode_graph6(g)
    assert s.startswith("~")
    assert decode_graph6(s).adjacency == g.adjacency


def test_size_field_boundary():
    # 62 uses the single-character size, 63 switches to the 3-character form
    g62 = build_graph(62, [(0, 61)])
    g63 = build_graph(63, [(0, 62)])
    s62, s63 = encode_graph6(g62), encode_graph6(g63)
    assert not s62.startswith("~") and s63.startswith("~")
    assert decode_graph6(s62).adjacency == g62.adjacency
    assert decode_graph6(s63).adjacency == g63.adjacency


def test_json_roundtrip():
    g = build_graph(4, [(0, 1), (2, 3)], labels=("a", "b", "c", "d"))
    doc = graph_to_json(g)
    back = graph_from_json(doc)
    assert back.adjacency == g.adjacency and back.labels == g.labels


def test_json_rejects_garbage():
    with pytest.raises(FormatError):
        graph_from_json({"edges": [[0, 1]]})


@pytest.mark.parametrize(
    "name, content",
    [
        ("bom.g6", b"\xff\xfe"),
        ("labels.json", b'{"n": 2, "edges": [[0,1]], "labels": 5}'),
        ("short_labels.json", b'{"n": 2, "edges": [[0,1]], "labels": ["a"]}'),
        ("float_end.json", b'{"n": 2, "edges": [[0,1.5]]}'),
        ("string_ends.json", b'{"n": 2, "edges": [["0","1"]]}'),
        ("bool_n.json", b'{"n": true, "edges": [[0,1]]}'),
    ],
)
def test_malformed_file_exit2(tmp_path, capsys, name, content):
    # each of these was a traceback or was silently coerced by int()
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(FormatError):
        load_graph(str(path))
    assert main(["spectral", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "content, refusal",
    [
        ("~??", "truncated graph6 size field"),
        ("~~??", "truncated graph6 size field"),
        # the 8-byte size form: n = 2^12 needs 2^11 (2^12 - 1) bits, 1397760 bytes
        ("~~???@??", "graph6 body length 0, expected 1397760"),
    ],
    ids=["short-4-byte-form", "short-8-byte-form", "8-byte-form-no-body"],
)
def test_size_field_refusals_exit2(tmp_path, capsys, monkeypatch, content, refusal):
    built = record_calls(monkeypatch, "graphs", "build_graph")
    path = tmp_path / "g.g6"
    path.write_text(content)
    assert main(["spectral", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert built == []


def test_unreadable_input_is_a_format_error(tmp_path):
    # a directory was an IsADirectoryError traceback
    with pytest.raises(FormatError, match="cannot read"):
        load_graph(str(tmp_path))


# small JSON values of every type, so that graph documents get past the
# parser; integers stay small because a valid document with a huge "n"
# would really be built
_JSON_SCALARS = st.one_of(
    st.integers(-2, 8), st.booleans(), st.floats(), st.text(max_size=2), st.none()
)
_JSON_GRAPHS = st.fixed_dictionaries(
    {"n": _JSON_SCALARS, "edges": st.lists(st.lists(_JSON_SCALARS, max_size=3), max_size=5)},
    optional={"labels": st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4))},
).map(lambda doc: json.dumps(doc).encode()[:64])


@given(
    content=st.one_of(
        st.binary(max_size=64),
        st.text(max_size=64).map(lambda s: s.encode()[:64]),
        _JSON_GRAPHS,
    ),
    suffix=st.sampled_from([".g6", ".json"]),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_file_content_exits_cleanly(tmp_path, content, suffix):
    path = tmp_path / f"graph{suffix}"
    path.write_bytes(content)
    assert main(["spectral", str(path)]) in (0, 2, 3)


@given(st.text(max_size=30))
@settings(max_examples=300, deadline=None)
def test_decoder_never_crashes(text):
    # arbitrary input either decodes to a valid graph or raises FormatError
    try:
        g = decode_graph6(text)
    except FormatError:
        return
    assert decode_graph6(encode_graph6(g)).adjacency == g.adjacency
