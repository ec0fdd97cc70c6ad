"""The four workloads: seeded graph inputs and the CLI job list of each.

Every graph input is written as a graph6 file whose vertices are relabelled
by a permutation drawn from the seed, so the program only ever sees those
files.  Table jobs take no graph input and are the same for every seed.

Why these workloads:

* ``tables``: ``table 1|2|3 --json``, the paper's reproduction path
  (isomorphism, distance oracles, Hungarian solves; no scan, no
  Bakry-Emery, no flow).
* ``analyze``: ``analyze --skip-spherical`` on Gosset, Hall, Chang1 and
  J(6,3)xCP(4): the predicate pipeline without the sphericity scan, where
  every edge curvature is computed three times today.
* ``spherical``: full ``analyze`` on J(6,3)xCP(2), the 6-cube and
  Shrikhande: dominated by the strong-sphericity scan, which no other
  workload runs.  Shrikhande fails the whole-graph check at once.
* ``sweeps``: per-edge curvature on johnson:6:3 (matching route) and Chang1
  (144 of its 168 edges on the assignment route), per-vertex Bakry-Emery on
  J(6,3)xCP(2), and ten ``--p 1/2 --plan`` pairs each on Gosset and Hall,
  the only CLI route into the min-cost-flow solver.

J(6,3)xCP(2) stands in for J(6,3)xCP(4) on ``spherical`` and ``sweeps``, and
Chang1 for Hall in the assignment-route sweep, so that several passes of each
workload fit in one run (a full ``analyze`` on J(6,3)xCP(4) alone takes about
30 s, its Bakry-Emery sweep about as long, and Hall's per-edge sweep about
7 s on a 2-core machine).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from curvlab.families import FamilySpec, from_spec
from curvlab.fixtures import load_fixture
from curvlab.graph6 import encode_graph6
from curvlab.graphs import Graph, build_graph

PLAN_PAIRS = 10  # per graph on the sweeps workload
PLAN_GRAPHS = ("gosset", "hall")


def _spec(text: str) -> Callable[[], Graph]:
    return lambda: from_spec(FamilySpec.parse(text))


def _product(*specs: str) -> Callable[[], Graph]:
    factors = tuple(FamilySpec.parse(s) for s in specs)
    return lambda: from_spec(FamilySpec("product", factors=factors))


GRAPHS: dict[str, Callable[[], Graph]] = {
    "gosset": _spec("gosset"),
    "hall": lambda: load_fixture("hall"),
    "chang1": lambda: load_fixture("chang1"),
    "j63xcp4": _product("johnson:6:3", "cocktailparty:4"),
    "j63xcp2": _product("johnson:6:3", "cocktailparty:2"),
    "hypercube6": _spec("hypercube:6"),
    "shrikhande": _spec("shrikhande"),
    "johnson63": _spec("johnson:6:3"),
}

USES: dict[str, tuple[str, ...]] = {
    "tables": (),
    "analyze": ("gosset", "hall", "chang1", "j63xcp4"),
    "spherical": ("j63xcp2", "hypercube6", "shrikhande"),
    "sweeps": ("johnson63", "chang1", "j63xcp2", "gosset", "hall"),
}


@dataclass(frozen=True)
class Job:
    """One CLI command and how to check its stdout."""

    argv: tuple[str, ...]
    check: str  # "exact" | "analyze" | "edges" | "be" | "plan"
    ref: str  # reference file
    graph: str | None = None
    pair: tuple[int, int] | None = None  # canonical vertices of a plan job


@dataclass(frozen=True)
class Input:
    """A relabelled graph as written for the program."""

    path: Path
    perm: tuple[int, ...]  # canonical vertex -> label in the file
    adjacency: tuple[frozenset[int], ...]  # in file labels


def relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def prepare(
    workload: str, seed: int | None, directory: Path
) -> tuple[list[Job], dict[str, Input]]:
    """Write the workload's inputs into ``directory`` and return its jobs.

    ``seed=None`` keeps canonical labels; reference outputs are captured
    that way.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    inputs: dict[str, Input] = {}
    for name in USES[workload]:
        g = GRAPHS[name]()
        perm = list(range(g.n))
        if seed is not None:
            rng.shuffle(perm)
        h = relabel(g, tuple(perm))
        path = directory / f"{name}.g6"
        path.write_text(encode_graph6(h) + "\n")
        inputs[name] = Input(path, tuple(perm), tuple(frozenset(a) for a in h.adjacency))
    jobs = [_concrete(job, inputs) for job in _job_list(workload, rng, inputs)]
    return jobs, inputs


def _job_list(workload: str, rng: random.Random, inputs: dict[str, Input]) -> list[Job]:
    if workload == "tables":
        return [Job(("table", t, "--json"), "exact", f"table{t}.txt") for t in "123"]
    if workload == "analyze":
        return [
            Job(("analyze", "@" + g, "--skip-spherical", "--name", g), "analyze",
                f"analyze-skip-spherical-{g}.json", g)
            for g in USES["analyze"]
        ]
    if workload == "spherical":
        return [
            Job(("analyze", "@" + g, "--name", g), "analyze", f"analyze-{g}.json", g)
            for g in USES["spherical"]
        ]
    if workload == "sweeps":
        jobs = [
            Job(("curvature", "@johnson63", "--all-edges"), "edges", "edges-johnson63.txt", "johnson63"),
            Job(("curvature", "@chang1", "--all-edges"), "edges", "edges-chang1.txt", "chang1"),
            Job(("bakry-emery", "@j63xcp2"), "be", "be-j63xcp2.json", "j63xcp2"),
        ]
        for g in PLAN_GRAPHS:
            n = len(inputs[g].perm)
            for a, b in sorted(tuple(sorted(rng.sample(range(n), 2))) for _ in range(PLAN_PAIRS)):
                jobs.append(Job(("curvature", "@" + g, "--p", "1/2", "--plan"), "plan", "plans.json", g, (a, b)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def _concrete(job: Job, inputs: dict[str, Input]) -> Job:
    """Replace ``@graph`` tokens by file paths and place plan pairs."""
    argv = [str(inputs[a[1:]].path) if a.startswith("@") else a for a in job.argv]
    if job.pair is not None:
        perm = inputs[job.graph].perm
        argv[2:2] = [str(perm[job.pair[0]]), str(perm[job.pair[1]])]
    return Job(tuple(argv), job.check, job.ref, job.graph, job.pair)
