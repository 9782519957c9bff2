"""Record the output hash of every workload for a list of seeds.

Usage (from the repository root):
    python3 perfbench/record.py [--seeds 0-63,9001] [--workload NAME ...]

Runs one untraced child per workload and seed and merges the hashes into
``expected.json``.  Re-record only when a change is meant to alter the
simulator's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(raw: str) -> list[int]:
    seeds: list[int] = []
    for part in raw.split(","):
        low, sep, high = part.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if sep else [int(low)])
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=f"0-63,{run.HELD_BACK_SEED}")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    run.WORK.mkdir(exist_ok=True)
    for workload in args.workload or list(run.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            work = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
            try:
                config, argv = run.write_inputs(workload, seed, work)
                # A deadline in the past: one repetition.
                result = run.run_child(argv, config, work, 0, False, 0.0, run.DEADLINE_S)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            rep = result["reps"][0]
            if "error" in rep:
                print(f"{workload} seed {seed}: {rep['error']}", file=sys.stderr)
                return 1
            expected.setdefault(workload, {})[str(seed)] = rep["hash"]
            print(f"{workload} seed {seed}: {rep['hash']}", flush=True)
            run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
