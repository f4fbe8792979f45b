"""Run the benchmark over several seeds and summarise it.

    python3 bench/baseline.py --seeds 1-10 --seconds 10
    python3 bench/baseline.py --workloads cam-320 --seeds 1-5 --trace 1

Runs ``run.py`` once per (workload, seed), one after another, and prints for
every metric its median over the seeds, its quartiles and the spread
(third minus first quartile, as a share of the median), computed with
``statistics.quantiles(values, n=4)``. Every run must report
``correct: true``. With ``--trace 1`` it also runs the first seed a second
time and requires every computed per-layer value to repeat exactly.
Raw results go to ``.bench-work/baseline-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import COMPUTED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: not correct\n{done.stderr}")
    return result


def summarise(name: str, values: list[float]) -> str:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return f"  {name:40s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    seeds = seed_list(args.seeds)
    raw: dict[str, dict[str, list]] = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        raw[workload] = {"seeds": seeds, "results": results}
        print(f"{workload}: {len(seeds)} runs, all correct")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) >= 2 and any(values):
                print(summarise(name, values), flush=True)
        if args.trace:
            again = run_once(workload, seeds[0], args.seconds, args.trace)
            moved = [n for n in COMPUTED if again["metrics"][n]["value"] != results[0]["metrics"][n]["value"]]
            if moved:
                sys.exit(f"{workload}: computed values did not repeat: {moved}")
            print(f"  computed values repeat exactly for seed {seeds[0]}")
    out = ROOT / ".bench-work" / f"baseline-{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
