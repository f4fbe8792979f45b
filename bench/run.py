"""trapeval benchmark: one seeded workload, end-to-end or traced.

    python3 bench/run.py --workload eval-2k --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory, nothing needs installing. The inputs are generated from
``--seed`` into ``.bench-work/``, then a worker process runs the workload's
CLI command repeatedly in-process (see ``worker.py``). Every operation's
outputs are checked against the frozen digests in ``digests.json`` (or, for
a seed not frozen there, against the first operation of the run) and
against invariants the generated inputs imply.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (``wall_s``, ``cpu_s``, ``peak_rss_mib``,
``setup_s``; times are scaled to the reference speed, see
``reference.py``); with ``--trace 1`` they are the per-layer ones. The line
before it records the environment (numpy and OpenBLAS versions, nproc),
the number of timed operations, the unscaled medians and the slowdown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from reference import pin_to_one_cpu, slowdown
from tracing import PER_LAYER_UNITS
from workloads import WORKLOADS, sha256_file

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 160

SETUP_PROBE = (
    "import time; t = time.perf_counter(); import trapeval.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict[str, str]:
    """The checkout's sources first; evaluation runs serially, as by default."""
    env = {k: v for k, v in os.environ.items() if k != "TRAPEVAL_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> tuple[float, float]:
    """Median seconds a fresh interpreter takes to import trapeval.cli,
    after one untimed import that leaves the bytecode cache warm: scaled to
    the reference speed, and raw."""
    scaled = []
    raw = []
    cpus = os.sched_getaffinity(0)
    pin_to_one_cpu()  # the probes inherit it
    for i in range(SETUP_SAMPLES + 1):
        before = slowdown()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        if i:
            raw.append(seconds)
            scaled.append(seconds / ((before + slowdown()) / 2))
    os.sched_setaffinity(0, cpus)  # the worker must see every CPU again
    return statistics.median(scaled), statistics.median(raw)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "TRAPEVAL_THREADS": "unset",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="trapeval benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "trapeval" / "cli.py").is_file():
        print(f"error: no trapeval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trapeval

    if Path(trapeval.__file__).resolve().parent != SRC / "trapeval":
        print(f"error: imported trapeval from {trapeval.__file__}, not {SRC}", file=sys.stderr)
        return 2

    frozen = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    seeds = frozen.get(args.workload, {})
    expected = seeds.get("*") or seeds.get(str(args.seed)) or {}

    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        expect = WORKLOADS[args.workload].generate(args.seed, work / "in")
        (work / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
        problems = []
        inputs = {}
        for path in sorted((work / "in").glob("*")):
            inputs[path.name] = sha256_file(path)
        if expected and expected["inputs"] != inputs:
            problems.append(f"generated inputs {inputs} differ from the frozen ones")
        command = [
            sys.executable,
            str(BENCH / "worker.py"),
            "--workload", args.workload,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work", str(work),
            "--frozen", expected.get("outputs", ""),
            "--spans", str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"),
        ]
        subprocess.run(command, env=child_env(), cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        report = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems.extend(report["problems"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: {"value": report["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "cpu_s": {"value": report["cpu_s"], "unit": "s"},
            "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    info = environment()
    info.update(
        workload=args.workload,
        seed=args.seed,
        timed_ops=report["ops"],
        raw_wall_s=report["raw_wall_s"],
        raw_cpu_s=report["raw_cpu_s"],
        raw_setup_s=raw_setup_s,
        slowdown=report["slowdown"],
        output_digest=report["digest"],
        digests_frozen=bool(expected),
    )
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
