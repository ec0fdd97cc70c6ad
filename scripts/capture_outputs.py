#!/usr/bin/env python3
"""Capture the outputs of the byte-identity gate into one directory.

Runs the command-line interface of this checkout (its ``src`` directory)
on a fixed command list and writes each command's stdout to
``OUTDIR/<name>.out``; a command that exits non-zero or writes to stderr
also gets ``OUTDIR/<name>.err`` with its exit code and stderr.  The
commands are ``table 1|2|3 --json``; full and ``--skip-spherical``
``analyze``, ``spectral``, ``classify`` and ``sharpness`` on Gosset, Hall,
Chang1 and J(6,3)xCP(4); ``bakry-emery`` (default and ``--vertex 0``) on
those four, J(6,3)xCP(2), Kneser(5,2), Shrikhande and the 6-cube;
``curvature --all-edges`` on Chang1, on J(6,3)xCP(2), whose edge table
holds assignments of two sizes (6 and 10 atoms), and on K4, whose
difference neighbourhoods are empty;
``curvature`` on single pairs, with and without ``--p`` and ``--plan``,
one of them a refused equal pair; ``transport-geodesic`` on the 3-cube,
along a full-length path and a refused short one, and on Kneser(5,2)
along a path whose first edge has no uniquely determined perfect
matching; ``gen johnson 8 4``
and ``gen kneser 9 4``, as graph6 and as ``--json``; and, on a
disconnected regular graph (2K3), a connected irregular one (P4), the
graph with no vertex and the one with a single vertex (K1, connected and
regular of degree 0), ``analyze``, ``curvature`` on a pair and with
``--all-edges``, ``spectral``, ``sharpness``, ``classify``,
``bakry-emery`` (default and ``--vertex 0``) and ``transport-geodesic
--path 0,1 --z 0``, so the precondition refusals are gated too (every
command on P4 except ``spectral`` and the two ``bakry-emery`` ones
refuses it; ``analyze`` does since it builds its analysis first); and
``bakry-emery`` (default and ``--vertex 0``) on two connected irregular
graphs with triangles and non-empty 2-spheres: one whose 1-ball degrees
differ, and a 30-vertex one whose four ball shapes alternate in vertex
order, so one block run holds several shape groups; and ``analyze --skip-spherical`` on the 4-cube, the 6-demicube,
J(8,4) and the circulant C10(1, 4), i ~ i +- 1, i +- 4, whose mu-graph scan
fails at its third pair, so the partial mu-graph counts of a failing scan
are gated too.  The two products are built with ``gen product`` and the six
small graphs written as JSON into ``OUTDIR/inputs``, and every command
runs there, so the input names that reports print are the same in every
capture.

Capture once before a change and once after it, from two checkouts, and
compare:

    python3 scripts/capture_outputs.py /tmp/before   # at the parent
    python3 scripts/capture_outputs.py /tmp/after    # with the change
    diff -r /tmp/before /tmp/after

The 99 commands run one after another and take about 20 s on a 2-core
machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PRODUCTS = {
    "j63xcp4.g6": ("johnson:6:3", "cocktailparty:4"),
    "j63xcp2.g6": ("johnson:6:3", "cocktailparty:2"),
}
# (n, edges) of the graphs every precondition refusal is gated on
REFUSED = {
    "2k3.json": (6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]),
    "p4.json": (4, [[0, 1], [1, 2], [2, 3]]),
    "empty.json": (0, []),
    "k1.json": (1, []),
}
# a triangular prism with a seventh vertex on the triangle 0 1 6: degrees 2, 3, 4;
# and a 30-vertex graph, i ~ i + 1, i ~ 7i + 3 and, for i = 0 mod 5, i ~ i + 2
# (63 edges, degrees 4 and 5, 12 triangles), whose four ball shapes
# (|S1(x)|, |S2(x)|) alternate in vertex order
IRREGULAR = {
    "prism-plus.json": (
        7, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 4], [2, 5], [3, 4], [3, 5], [4, 5], [0, 6], [1, 6]]
    ),
    "shapes30.json": (
        30,
        sorted(
            {
                (min(i, j), max(i, j))
                for i in range(30)
                for j in [(i + 1) % 30, (7 * i + 3) % 30] + ([(i + 2) % 30] if i % 5 == 0 else [])
            }
        ),
    ),
}
# C10(1, 4): its mu-graph scan passes (0, 2) and (0, 3), then fails at (0, 5)
CIRCULANT = {
    "c10-1-4.json": (10, [[i, (i + s) % 10] for i in range(10) for s in (1, 4)]),
}
ANALYZED = ("gosset", "hall", "chang1", "j63xcp4.g6")
# Kneser(5,2) is triangle-free with one back-neighbour per 2-sphere vertex
BAKRY_EMERY = ANALYZED + ("j63xcp2.g6", "kneser:5:2", "shrikhande", "hypercube:6")
ALL_EDGES = ("chang1", "j63xcp2.g6", "complete:4")
SCANNED = ("hypercube:4", "demicube:6", "johnson:8:4", "c10-1-4.json")
GENERATED = (("johnson", "8", "4"), ("kneser", "9", "4"))
# (output name, CLI argv); the last curvature pair and the last two
# transport geodesics exit 3
PAIRS = (
    ("curvature-gosset-0-1", ["curvature", "gosset", "0", "1"]),
    ("curvature-chang1-0-5", ["curvature", "chang1", "0", "5"]),
    ("curvature-hall-0-40", ["curvature", "hall", "0", "40"]),
    ("curvature-plan-gosset-0-1", ["curvature", "gosset", "0", "1", "--plan"]),
    ("curvature-p-plan-hall-3-50", ["curvature", "hall", "3", "50", "--p", "1/2", "--plan"]),
    ("curvature-chang1-0-0", ["curvature", "chang1", "0", "0"]),
    ("transport-geodesic-q3", ["transport-geodesic", "hypercube:3", "--path", "0,1,3,7", "--z", "0"]),
    ("transport-geodesic-q3-short", ["transport-geodesic", "hypercube:3", "--path", "0,1,3", "--z", "0"]),
    ("transport-geodesic-kneser-5-2", ["transport-geodesic", "kneser:5:2", "--path", "0,7,3", "--z", "0"]),
)


def commands() -> list[tuple[str, list[str]]]:
    """(output name, CLI argv) for every gated command."""
    out = [(f"table{t}", ["table", str(t), "--json"]) for t in (1, 2, 3)]
    for g in ANALYZED:
        stem = g.removesuffix(".g6")
        out.append((f"analyze-{stem}", ["analyze", g]))
        out.append((f"analyze-skip-spherical-{stem}", ["analyze", g, "--skip-spherical"]))
        out.append((f"spectral-{stem}", ["spectral", g]))
        out.append((f"classify-{stem}", ["classify", g]))
        out.append((f"sharpness-{stem}", ["sharpness", g]))
    for g in (*BAKRY_EMERY, *IRREGULAR):
        stem = g.removesuffix(".g6").removesuffix(".json").replace(":", "-")
        out.append((f"bakry-emery-{stem}", ["bakry-emery", g]))
        out.append((f"bakry-emery-vertex0-{stem}", ["bakry-emery", g, "--vertex", "0"]))
    for g in SCANNED:
        stem = g.removesuffix(".json").replace(":", "-")
        out.append((f"analyze-skip-spherical-{stem}", ["analyze", g, "--skip-spherical"]))
    for g in ALL_EDGES:
        stem = g.removesuffix(".g6").replace(":", "-")
        out.append((f"curvature-all-edges-{stem}", ["curvature", g, "--all-edges"]))
    out.extend(PAIRS)
    for spec in GENERATED:
        stem = "-".join(spec)
        out.append((f"gen-{stem}", ["gen", *spec]))
        out.append((f"gen-json-{stem}", ["gen", *spec, "--json"]))
    for g in REFUSED:
        stem = g.removesuffix(".json")
        out.append((f"analyze-{stem}", ["analyze", g]))
        out.append((f"curvature-{stem}-0-1", ["curvature", g, "0", "1"]))
        out.append((f"curvature-all-edges-{stem}", ["curvature", g, "--all-edges"]))
        out.append((f"spectral-{stem}", ["spectral", g]))
        out.append((f"sharpness-{stem}", ["sharpness", g]))
        out.append((f"classify-{stem}", ["classify", g]))
        out.append((f"bakry-emery-{stem}", ["bakry-emery", g]))
        out.append((f"bakry-emery-vertex0-{stem}", ["bakry-emery", g, "--vertex", "0"]))
        out.append(
            (f"transport-geodesic-{stem}", ["transport-geodesic", g, "--path", "0,1", "--z", "0"])
        )
    return out


def run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "curvlab.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: capture_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    inputs = outdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, factors in PRODUCTS.items():
        proc = run(["gen", "product", *factors, "-o", name], inputs)
        if proc.returncode != 0:
            print(f"gen {name} failed: {proc.stderr}", file=sys.stderr)
            return 1
    for name, (n, edges) in {**REFUSED, **IRREGULAR, **CIRCULANT}.items():
        (inputs / name).write_text(json.dumps({"n": n, "edges": edges}) + "\n")
    for name, cli_argv in commands():
        proc = run(cli_argv, inputs)
        (outdir / f"{name}.out").write_text(proc.stdout)
        if proc.returncode != 0 or proc.stderr:
            (outdir / f"{name}.err").write_text(f"exit {proc.returncode}\n{proc.stderr}")
        print(f"{name}: exit {proc.returncode}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
