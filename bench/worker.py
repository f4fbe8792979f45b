"""Runs one workload's operations in this process and writes the timings,
digests and checks to ``result.json`` in the work directory.

Started by ``run.py`` as its own process, so its peak RSS covers the CLI
operations and nothing the input generators allocated. Every operation is
``trapeval.cli.main(argv)`` with a fresh ``--out-dir``. The first one is an
untimed warm-up; then operations repeat until ``--seconds`` have passed and
at least ``MIN_TIMED`` ran. With ``--trace 1`` untraced and traced
operations alternate, at least one pair, so the tracing overhead is
measured in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import trapeval.cli

from reference import pin_to_one_cpu, slowdown
from tracing import COMPUTED, OVERHEAD, PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS, combined_digest, sha256_file

MIN_TIMED = 2


def run_op(argv: list[str], out: Path, tracer: Tracer | None = None) -> dict:
    """One CLI operation into a fresh ``out``; returns exit code, wall and
    CPU seconds, the machine slowdown around it (see ``reference.py``),
    stdout, per-file digests and any exception text."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    stdout = io.StringIO()
    stderr = io.StringIO()
    call = trapeval.cli.main if tracer is None else tracer.timed("cli.main", trapeval.cli.main)
    error = None
    code = None
    before = slowdown()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = call(argv + ["--out-dir", str(out)])
    except Exception as exc:  # a raising operation counts as failed
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    speed = (before + slowdown()) / 2
    digests = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                digests[path.relative_to(out).as_posix()] = sha256_file(path)
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    return {
        "code": code,
        "error": error,
        "stderr": stderr.getvalue(),
        "wall": wall,
        "cpu": cpu,
        "slowdown": speed,
        "stdout": stdout.getvalue(),
        "digests": digests,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory holding expect.json and the inputs")
    parser.add_argument("--frozen", default="", help="expected combined output digest, if frozen")
    parser.add_argument("--spans", default="", help="where a traced run writes its spans")
    args = parser.parse_args()

    pin_to_one_cpu()
    work = Path(args.work)
    expect = json.loads((work / "expect.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    out = work / "out"
    tracer = Tracer() if args.trace else None

    attempted = failed = 0
    problems: list[str] = []
    expected = args.frozen or None
    walls: list[float] = []
    cpus: list[float] = []
    slowdowns: list[float] = []
    traced_walls: list[float] = []

    def attempt(traced: bool) -> dict:
        nonlocal attempted, failed, expected
        if traced:
            tracer.begin(attempted)
            tracer.install()
            try:
                result = run_op(expect["argv"], out, tracer)
            finally:
                tracer.uninstall()
            tracer.end()
        else:
            result = run_op(expect["argv"], out)
        attempted += 1
        found = []
        if result["error"] is not None:
            found.append(result["error"])
        elif result["code"] != 0:
            found.append(f"exit code {result['code']}: {result['stderr'].strip()[:200]}")
        else:
            digest = combined_digest(result["digests"])
            if expected is None:
                expected = digest
            elif digest != expected:
                found.append(f"output digest {digest} != expected {expected}")
            found.extend(workload.check(out, result["stdout"], expect))
        if found:
            failed += 1
            problems.extend(f"op {attempted - 1}: {p}" for p in found)
        return result

    attempt(False)  # warm-up
    start = time.perf_counter()
    while True:
        result = attempt(False)
        walls.append(result["wall"])
        cpus.append(result["cpu"])
        slowdowns.append(result["slowdown"])
        if tracer is not None:
            traced_walls.append(attempt(True)["wall"])
        enough = len(walls) >= (1 if tracer is not None else MIN_TIMED)
        if enough and time.perf_counter() - start >= args.seconds:
            break
    shutil.rmtree(out, ignore_errors=True)

    report = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digest": expected,
        "ops": len(walls),
        "wall_s": statistics.median(w / f for w, f in zip(walls, slowdowns)),
        "cpu_s": statistics.median(c / f for c, f in zip(cpus, slowdowns)),
        "raw_wall_s": statistics.median(walls),
        "raw_cpu_s": statistics.median(cpus),
        "slowdown": statistics.median(slowdowns),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        per_layer = {
            name: statistics.median(op[name] for op in tracer.per_op)
            for name in PER_LAYER_UNITS
            if name not in OVERHEAD
        }
        unsteady = [name for name in COMPUTED if len({op[name] for op in tracer.per_op}) != 1]
        if unsteady:
            report["failed"] += 1
            report["problems"].append(f"computed values differ between traced operations: {unsteady}")
        per_layer["trace.wall_s"] = statistics.median(traced_walls)
        per_layer["trace.untraced_wall_s"] = report["raw_wall_s"]
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - report["raw_wall_s"]
        report["per_layer"] = per_layer
        if args.spans:
            tracer.write_spans(Path(args.spans))
    (work / "result.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
