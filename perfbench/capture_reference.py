#!/usr/bin/env python3
"""Capture the reference outputs the benchmark checks against.

Usage: python3 perfbench/capture_reference.py

Runs every job of every workload on canonically labelled inputs and stores
its stdout under ``perfbench/reference``, plus ``plans.json``: the printed
``kappa_1/2`` value and method for every vertex pair of the graphs the
``--plan`` jobs draw from.  Run it only on a commit whose outputs are known
good; the committed files come from the commit that added the benchmark.
"""

import json
import sys
import tempfile
from itertools import combinations
from pathlib import Path

from program import OUT, bootstrap

if __name__ == "__main__":
    bootstrap()
    import checks
    import run
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        plans: dict[str, dict[str, str]] = {}
        for workload in workloads.USES:
            jobs, inputs = workloads.prepare(workload, None, Path(tmp))
            for job in jobs:
                if job.check == "plan":
                    continue
                code, out, error = run.invoke(job.argv)
                if code != 0:
                    sys.exit(f"{' '.join(job.argv)} failed: {error}")
                (checks.REF_DIR / job.ref).write_text(out)
            for g in workloads.PLAN_GRAPHS if workload == "sweeps" else ():
                pairs = {}
                for a, b in combinations(range(len(inputs[g].perm)), 2):
                    run.clear_program_caches()
                    code, out, error = run.invoke(("curvature", str(inputs[g].path), str(a), str(b), "--p", "1/2"))
                    match = checks.PLAN_LINE.match(out.strip())
                    if code != 0 or match is None:
                        sys.exit(f"pair ({a},{b}) of {g} failed: {error or out}")
                    pairs[f"{a} {b}"] = f"{match[3]} {match[4]}"
                plans[g] = pairs
        (checks.REF_DIR / "plans.json").write_text(json.dumps(plans, indent=1, sort_keys=True) + "\n")
