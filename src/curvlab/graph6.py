"""Bit-exact graph6 codec plus the JSON edge-list format.

graph6 follows McKay's format description: the optional ``>>graph6<<``
header, the N(n) size prefix, then the upper triangle of the adjacency
matrix in column order (0,1), (0,2), (1,2), (0,3), ... packed into 6-bit
big-endian groups offset by 63.  The decoder unpacks the whole body with
one ``np.unpackbits`` and finds each set bit's column by a search over the
column starts j (j - 1) / 2.
"""

from __future__ import annotations

import json
import re
from typing import Any

import numpy as np

from .errors import FormatError
from .graphs import Graph, build_graph

_HEADER = ">>graph6<<"
# a graph6 character is one of chr(63) "?" to chr(126) "~", and character c
# holds the six bits of c - 63 (a byte table, not numpy uint8 arithmetic,
# whose loops would add to the peak RSS of every decode)
_INVALID = re.compile(r"[^?-~]")
_MINUS_63 = bytes((c - 63) % 256 for c in range(256))


def _encode_n(n: int) -> str:
    if n < 0:
        raise FormatError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise FormatError("vertex count too large for graph6")


def _decode_n(s: str) -> tuple[int, int]:
    """Return (n, index of first data character)."""
    if not s:
        raise FormatError("empty graph6 string")
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if len(s) >= 2 and s[1] != "~":
        if len(s) < 4:
            raise FormatError("truncated graph6 size field")
        vals = [ord(c) - 63 for c in s[1:4]]
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4
    if len(s) < 8:
        raise FormatError("truncated graph6 size field")
    vals = [ord(c) - 63 for c in s[2:8]]
    n = 0
    for v in vals:
        n = (n << 6) | v
    return n, 8


def encode_graph6(g: Graph) -> str:
    bits: list[int] = []
    for j in range(1, g.n):
        row = g.neighbor_set(j)
        for i in range(j):
            bits.append(1 if i in row else 0)
    while len(bits) % 6 != 0:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return _encode_n(g.n) + "".join(chars)


def decode_graph6(s: str) -> Graph:
    s = s.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER) :].strip()
    if not s:
        raise FormatError("empty graph6 string")
    invalid = _INVALID.search(s)
    if invalid:
        raise FormatError(f"invalid graph6 character {invalid.group()!r}")
    n, start = _decode_n(s)
    nbits = n * (n - 1) // 2
    data = s[start:]
    need = (nbits + 5) // 6
    if len(data) != need:
        raise FormatError(f"graph6 body length {len(data)}, expected {need}")
    groups = np.frombuffer(data.encode("ascii").translate(_MINUS_63), dtype=np.uint8)
    bits = np.unpackbits(groups[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise FormatError("nonzero padding bits in graph6 body")
    # bit k of the upper triangle is (i, j) for the column j whose first bit,
    # j (j - 1) / 2, is the last one at or before k
    firsts = np.arange(n) * (np.arange(n) - 1) // 2
    k = np.flatnonzero(bits[:nbits])
    j = np.searchsorted(firsts, k, side="right") - 1
    return build_graph(n, zip((k - firsts[j]).tolist(), j.tolist()))


def graph_to_json(g: Graph) -> dict[str, Any]:
    doc: dict[str, Any] = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return doc


def _json_int(value: Any) -> int:
    # JSON true is an int to Python, and int() would also take 1.5 and "1"
    if type(value) is not int:
        raise FormatError(f"bad JSON graph document: {json.dumps(value)} is not an integer")
    return value


def graph_from_json(doc: Any) -> Graph:
    """Build a graph from ``{"n": int, "edges": [[int, int], ...]}`` with an
    optional ``"labels"`` list of ``n`` strings; anything else is a FormatError."""
    try:
        n = _json_int(doc["n"])
        edges = [(_json_int(u), _json_int(v)) for u, v in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad JSON graph document: {exc}") from exc
    labels = doc.get("labels")
    if "labels" in doc and not (
        isinstance(labels, list) and len(labels) == n and all(isinstance(s, str) for s in labels)
    ):
        raise FormatError(f"bad JSON graph document: labels must be a list of {n} strings")
    return build_graph(n, edges, labels=labels)


def load_graph(path: str) -> Graph:
    """Load a graph from a .g6/.json file, sniffing the format."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from exc
    if not text:
        raise FormatError(f"{path}: empty file")
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        return graph_from_json(doc)
    first = text.splitlines()[0].strip()
    return decode_graph6(first)
