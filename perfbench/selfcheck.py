#!/usr/bin/env python3
"""Check the benchmark's own pieces without timing anything.

Usage: python3 perfbench/selfcheck.py

* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` and
  ``tracing.py`` report, with the same units.
* Every reference output passes its own check, and deliberately altered
  outputs (a wrong ``inf_kappa``, a changed table byte, a wrong edge
  method, a moved Bakry-Emery value, a broken plan) are all rejected.

Exit code 0 when all of that holds.
"""

import json
import re
import sys
import tempfile
from pathlib import Path

from program import OUT, ROOT, bootstrap


def _edit_json(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _set(path: tuple, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


def main() -> int:
    bootstrap()
    import checks
    import run
    import tracing
    import workloads

    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if listed != [spec[:3] for spec in tracing.metric_specs()]:
        problems.append("BENCHMARK.json per_layer differs from tracing.metric_specs()")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        jobs = {}
        inputs = {}
        for workload in workloads.USES:
            directory = Path(tmp) / workload
            directory.mkdir()
            found, made = workloads.prepare(workload, None, directory)
            jobs.update({job.ref: job for job in found})
            inputs.update(made)
        _, plan_out, _ = run.invoke(jobs["plans.json"].argv)
        outputs = {ref: checks.reference(ref) for ref in jobs if ref != "plans.json"}
        outputs["plans.json"] = plan_out
        for ref, out in outputs.items():
            found = checks.check_output(jobs[ref], out, inputs)
            if found:
                problems.append(f"reference {ref} fails its own check: {found}")

        first, plan_json = plan_out.splitlines()
        entries = json.loads(plan_json)["entries"]
        moved = [[u, v, m] for u, v, m in entries]
        moved[0][1] = moved[-1][1] if moved[0][1] != moved[-1][1] else moved[0][0]
        altered = {
            "table2.txt": outputs["table2.txt"].replace("|", "!", 1),
            "analyze-skip-spherical-gosset.json": _edit_json(
                outputs["analyze-skip-spherical-gosset.json"], _set(("inf_kappa",), "1/4")),
            "analyze-hypercube6.json": _edit_json(
                outputs["analyze-hypercube6.json"], _set(("bakry_emery", "rows", 3, "curvature"), "0.3")),
            "analyze-skip-spherical-hall.json": _edit_json(
                outputs["analyze-skip-spherical-hall.json"], _set(("lambda1",), "1.01")),
            "analyze-j63xcp2.json": _edit_json(
                outputs["analyze-j63xcp2.json"], _set(("strongly_spherical",), False)),
            "edges-chang1.txt": outputs["edges-chang1.txt"].replace("(assignment)", "(matching)", 1),
            "edges-johnson63.txt": "\n".join(outputs["edges-johnson63.txt"].splitlines()[1:]) + "\n",
            "be-j63xcp2.json": _edit_json(outputs["be-j63xcp2.json"], _set(("conjecture", "holds"), None)),
            "plans.json": first + "\n" + json.dumps({"entries": moved}) + "\n",
        }
        altered_kappa = re.sub(r"= (\S+) ", "= 7/8 ", first, count=1)
        for ref, out in list(altered.items()) + [("plans.json", altered_kappa + "\n" + plan_json + "\n")]:
            if checks.check_output(jobs[ref], out, inputs) is None:
                problems.append(f"an altered {ref} output was accepted")

    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
