"""Freeze the output digests the benchmark checks every operation against.

    python3 bench/freeze.py --seeds 0-31 [--workloads eval-2k,cam-320]

For each workload and seed it generates the inputs, runs the CLI command
once and records the sha256 of every input file and one combined sha256
over every output file and the stdout summary (see
``workloads.combined_digest``). A workload whose inputs do not depend on
the seed (``losslab``) is frozen once, under the key ``"*"``. The named
workloads' entries in ``bench/digests.json`` are replaced; the others kept. Only re-freeze on purpose: the digests are the
byte-for-byte output contract later changes are held to.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from baseline import seed_list  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import WORKLOADS, combined_digest, sha256_file  # noqa: E402


def freeze_one(workload: str, seed: int) -> dict:
    work_root = BENCH.parent / ".bench-work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        work = Path(tmp)
        expect = WORKLOADS[workload].generate(seed, work / "in")
        inputs = {p.name: sha256_file(p) for p in sorted((work / "in").glob("*"))}
        result = run_op(expect["argv"], work / "out")
        if result["error"] or result["code"] != 0:
            sys.exit(f"{workload} seed {seed} failed: {result['error'] or result['stderr']}")
        problems = WORKLOADS[workload].check(work / "out", result["stdout"], expect)
        if problems:
            sys.exit(f"{workload} seed {seed}: {problems}")
        return {"inputs": inputs, "outputs": combined_digest(result["digests"])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-31")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    path = BENCH / "digests.json"
    frozen = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    frozen = {name: seeds for name, seeds in frozen.items() if name in WORKLOADS}
    for workload in args.workloads.split(","):
        if not WORKLOADS[workload].seeded:
            frozen[workload] = {"*": freeze_one(workload, 0)}
            continue
        frozen[workload] = {}
        for seed in seed_list(args.seeds):
            frozen[workload][str(seed)] = freeze_one(workload, seed)
            print(f"{workload} seed {seed}: {frozen[workload][str(seed)]['outputs']}", flush=True)
    path.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
