#!/usr/bin/env python3
"""Benchmark the curvlab CLI on one workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives ``curvlab.cli.main(argv)`` in this interpreter, one job after
another (a closed loop with one client, ``--jobs 1`` everywhere), and
repeats the workload's whole job list while another pass still fits in
``--seconds`` (at least one pass).  Every job's stdout is checked against
the reference outputs in ``perfbench/reference``.  Program caches
(``functools`` caches in curvlab modules) are cleared before each job,
because each CLI command is a fresh process for its users.

``--trace 0`` prints the end-to-end metrics, each the median over passes:
``wall_s`` (sum of the job times of one pass), ``slowest_job_s``,
``cpu_s`` (user plus system CPU of this process and its children over the
jobs), ``peak_rss_mb`` (``ru_maxrss``) and ``setup_s``, the median over
fresh interpreters of the time from spawn to ready (``import curvlab.cli``
plus writing the workload's inputs).  Every time is corrected for the host's
speed while it was measured (``speed.py``); the run record keeps the raw
times too.

``--trace 1`` runs one untraced pass and then traced passes, and prints the
per-layer metrics of ``tracing.py``.  Counts must repeat exactly across traced
passes, and across traced runs of the same seed and sources in this
checkout; any that does not is reported on stderr and in the run record.

The last stdout line is the result object.  A run record with the
environment, the seed and every job time is written under
``.perfbench-out/records``.  Exit code 2 means there is no program to
measure.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing
from speed import SpeedSampler
from program import OUT, ROOT, SRC, ProgramMissing, bootstrap

WORKLOADS = ("tables", "analyze", "spherical", "sweeps")
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # the whole run, set-up probes included, ends before this

# (name, unit): reported with --trace 0
END_TO_END = (
    ("wall_s", "s"),
    ("slowest_job_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def probe_setup(workload: str, seed: int, deadline: float) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its set-up being ready.

    Returns the seconds corrected by the speed the probe sampled
    (``speed.py``) and the raw seconds.
    """
    directory = Path(tempfile.mkdtemp(dir=OUT))
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed), str(directory)]
    try:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        words = line.split()
        if len(words) != 2 or words[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        return elapsed * float(words[1]), elapsed
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def clear_program_caches() -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "curvlab" or name.startswith("curvlab.")):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def invoke(argv: tuple[str, ...]) -> tuple[int, str, str | None]:
    """(exit code, stdout, error) of one CLI command; error is None on exit 0."""
    from curvlab import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a failed benchmark
        return 1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), (err.getvalue() or f"exit code {code}") if code else None


def run_pass(jobs, inputs, tracer, sampler) -> dict:
    """One pass over the job list.

    With a ``sampler`` every job's wall and CPU time is corrected for the
    host's speed (``speed.py``); ``raw_s`` and ``raw_cpu_s`` keep the times
    as measured, less the time spent sampling.
    """
    import checks

    shown = {str(inp.path): inp.path.name for inp in inputs.values()}
    rows = []
    for index, job in enumerate(jobs):
        clear_program_caches()
        gc.collect()
        if tracer is not None:
            tracer.job = index
        if sampler is not None:
            sampler.start()
        try:
            cpu0 = _cpu_seconds()
            t0 = perf_counter()
            code, out, error = invoke(job.argv)
            seconds = perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
        finally:
            if sampler is not None:
                sampler.stop()
        factor = 1.0
        if sampler is not None:
            seconds -= sampler.spent
            cpu -= sampler.spent
            factor = sampler.factor()
        if error is None:
            error = checks.check_output(job, out, inputs)
        rows.append({"argv": [shown.get(a, a) for a in job.argv],
                     "s": seconds * factor, "cpu_s": cpu * factor, "raw_s": seconds, "raw_cpu_s": cpu,
                     "speed_factor": factor, "error": error})
    return {
        "traced": tracer is not None,
        "wall_s": sum(r["s"] for r in rows),
        "cpu_s": sum(r["cpu_s"] for r in rows),
        "slowest_job_s": max(r["s"] for r in rows),
        "raw_wall_s": sum(r["raw_s"] for r in rows),
        "jobs": rows,
    }


def run_passes(jobs, inputs, seconds: float, traced: bool, deadline: float):
    """Whole passes while the next one is predicted to fit in ``seconds``.

    With ``traced`` the first pass runs untraced and every later one traced,
    and at least one traced pass runs.  Returns the passes, the spans of
    the traced ones and the tracer.
    """
    tracer = None
    passes, spans = [], []
    start = perf_counter()
    while True:
        if traced and passes and tracer is None:
            tracer = tracing.Tracer()
            tracer.install()
        t0 = perf_counter()
        passes.append(run_pass(jobs, inputs, tracer, None if traced else SpeedSampler()))
        last = perf_counter() - t0
        if tracer is not None:
            spans.append(tracer.take())
        if traced and tracer is None:
            continue
        now = perf_counter()
        if now - start + last > seconds or time.monotonic() + last > deadline:
            break
    return passes, spans, tracer


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    kernels = sys.modules.get("curvlab._kernels")
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "openblas_threads": openblas_threads(),
        "numba_enabled": getattr(kernels, "NUMBA_ENABLED", None),
        "CURVLAB_NUMBA": os.environ.get("CURVLAB_NUMBA"),
    }


def steady_counts(workload: str, seed: int, digest: str, per_pass: list[dict]) -> list[str]:
    """Counts that differ between traced passes or from an earlier traced run.

    Earlier runs count only when they saw the same sources and job lists.
    """
    import workloads

    steady = [name for name, _, _, is_steady in tracing.metric_specs() if is_steady]
    first = per_pass[0]
    unsteady = [f"{name}: {first[name]} vs {other[name]} in pass {i + 1}"
                for i, other in enumerate(per_pass[1:], 1) for name in steady if other[name] != first[name]]
    jobs_digest = hashlib.sha256(Path(workloads.__file__).read_bytes()).hexdigest()
    history = OUT / "counts" / f"{workload}-s{seed}-{digest[:16]}-{jobs_digest[:16]}.json"
    if history.exists():
        earlier = json.loads(history.read_text())
        unsteady += [f"{name}: {earlier.get(name)} in an earlier run, {first[name]} now"
                     for name in steady if earlier.get(name) != first[name]]
    history.parent.mkdir(parents=True, exist_ok=True)
    history.write_text(json.dumps({name: first[name] for name in steady}, indent=1))
    return unsteady


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        bootstrap()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    probes = [] if args.trace else [probe_setup(args.workload, args.seed, deadline) for _ in range(SETUP_PROBES)]
    setup = [corrected for corrected, _ in probes]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        jobs, inputs = workloads.prepare(args.workload, args.seed, Path(tmp))
        passes, spans, tracer = run_passes(jobs, inputs, args.seconds, bool(args.trace), deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = environment()

    errors = [(job["argv"], job["error"]) for p in passes for job in p["jobs"] if job["error"]]
    attempted = sum(len(p["jobs"]) for p in passes)
    unsteady: list[str] = []
    if args.trace:
        base = passes[0]["wall_s"]
        traced = [p for p in passes if p["traced"]]
        per_pass = [tracing.layer_metrics(s, p["wall_s"], p["wall_s"] - base) for s, p in zip(spans, traced)]
        unsteady = steady_counts(args.workload, args.seed, env["src_sha256"], per_pass)
        metrics = {
            name: {"value": per_pass[0][name] if is_steady else statistics.median(m[name] for m in per_pass), "unit": unit}
            for name, unit, _, is_steady in tracing.metric_specs()
        }
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "slowest_job_s": statistics.median(p["slowest_job_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}

    for job_argv, error in errors:
        print(f"perfbench: FAILED {' '.join(job_argv)}: {error}", file=sys.stderr)
    for line in unsteady:
        print(f"perfbench: unsteady count {line}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **env,
        "fail_ratio": len(errors) / attempted,
        "setup_samples_s": setup, "setup_raw_samples_s": [raw for _, raw in probes], "passes": passes, "unsteady_counts": unsteady,
        "untraced_functions": tracer.missing if tracer else None,
        "trace_detail_errors": tracer.detail_errors if tracer else None,
        "result": result,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    path = records / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"perfbench: record written to {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
