#!/usr/bin/env python3
"""Set two groups of run records of one workload side by side.

Usage:
    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Run records are written by ``run.py`` under ``.perfbench-out/records``.
For each metric this prints both medians, the change of the medians, and
each side's spread (distance between the first and third quartile over the
median).  It makes no claim of its own; see ``perfbench/README.md`` for
when a difference counts.  Records of different workloads or trace modes,
or whose numba status differs, are refused with exit code 2: the kernels
then run different code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MUST_MATCH = ("workload", "trace", "numba_enabled", "CURVLAB_NUMBA")


def spread(values: list[float]) -> float:
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True, type=Path)
    ap.add_argument("--new", nargs="+", required=True, type=Path)
    args = ap.parse_args(argv)
    base = [json.loads(p.read_text()) for p in args.base]
    new = [json.loads(p.read_text()) for p in args.new]
    for key in MUST_MATCH:
        seen = {json.dumps(r.get(key)) for r in base + new}
        if len(seen) > 1:
            print(f"compare: refusing records that differ in {key}: {sorted(seen)}", file=sys.stderr)
            return 2
    for side, records in (("base", base), ("new", new)):
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        print(f"{side}: {len(records)} runs, {failed} of {attempted} jobs failed")
    print(f"{'metric':54} {'base':>12} {'new':>12} {'change':>8} {'spread b':>9} {'spread n':>9}")
    for name, entry in base[0]["result"]["metrics"].items():
        b = [r["result"]["metrics"][name]["value"] for r in base]
        n = [r["result"]["metrics"][name]["value"] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        change = f"{(mn - mb) / abs(mb):+8.1%}" if mb else f"{'n/a':>8}"
        print(f"{name:54} {mb:12.6g} {mn:12.6g} {change} {spread(b):9.1%} {spread(n):9.1%}  {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
