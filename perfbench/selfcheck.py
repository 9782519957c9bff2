"""Fast self-check of the benchmark at its minimum length.

Usage (from the repository root):
    python3 perfbench/selfcheck.py [--seed 0]

Runs every workload once untraced and once traced with ``--seconds 1`` (one
child, or one pair of children).  Each invocation must exit 0, end with the
result line, report no failure, check its outputs against a recorded hash,
and print every metric that ``BENCHMARK.json`` names, with that unit.
Finally it copies only ``BENCHMARK.json`` and the benchmark's directories
to a scratch directory and checks that the benchmark refuses to run there.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def invoke(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    declared = json.loads(BENCHMARK.read_text())
    argv = declared["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=run.DEADLINE_S + 10)


def check_run(workload: str, seed: int, trace: int) -> list[str]:
    declared = json.loads(BENCHMARK.read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    proc = invoke(run.ROOT, workload, seed, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if any(line.startswith("no hash recorded") for line in lines):
        problems.append(f"{where}: no hash recorded for seed {seed}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {metric['name']} reads {got}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    return problems


def check_refuses_without_sources() -> list[str]:
    declared = json.loads(BENCHMARK.read_text())
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        bare = Path(bare)
        shutil.copy(BENCHMARK, bare / "BENCHMARK.json")
        for path in declared["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = invoke(bare, next(iter(run.WORKLOADS)), 0, 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran in a directory holding only its own files"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run.WORK.mkdir(exist_ok=True)
    problems: list[str] = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, args.seed, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_refuses_without_sources()
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    print("self-check passed" if not problems else f"self-check FAILED ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
