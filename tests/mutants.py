"""Mutation check: every mutant below must make Tier-1 fail.

    python tests/mutants.py [NAME ...]

A mutant is a named text patch of one source file: a known way for the
code to go wrong.  For each one, the script copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` to a temporary directory, applies the
patch there, and runs Tier-1 with ``-x -q``.  A failing test kills the
mutant; a mutant the suite passes survives.  The unpatched copy runs first
and must pass, or nothing is killed by the mutants themselves.  The table
gives each mutant's fate, its time, and the test that killed it.

Exit status: 0 if every mutant is killed, 1 if one survives, 2 if a name
is unknown, a patch no longer matches the code it targets, or the
unpatched copy fails.
Give mutant names to run only those.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIER_1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # replaced wherever it occurs, which must be ``count`` times
    new: str
    count: int = 1


CONSENSUS, NETWORK, WORKLOAD = "src/chainsim/consensus.py", "src/chainsim/network.py", "src/chainsim/workload.py"
STREAMS = "src/chainsim/streams.py"
MUTANTS = [
    Mutant("rearm-reverse-order", CONSENSUS, "for node_id in node_ids:", "for node_id in reversed(node_ids):"),
    Mutant("no-rearm-after-reorg", CONSENSUS, "if rearm:", "if rearm and parent == tip:"),
    Mutant(
        "absorb-reorg-head-only", CONSENSUS,
        "for joined in branch(world, block, tip):\n                            self._absorb(node, joined)",
        "self._absorb(node, block)",
    ),
    Mutant("no-uncle-window-bound", CONSENSUS, " and depths[tip] < lowest_tip:", ":"),
    Mutant("inclusive-uncle-window-bound", CONSENSUS, "depths[tip] < lowest_tip", "depths[tip] <= lowest_tip"),
    Mutant("late-constant-delivery", NETWORK, "at + self.block_delay, receive", "at + self.block_delay + 1.0, receive"),
    Mutant("sorted-earners", "src/chainsim/incentives.py", "sorted(first, key=first.get)", "sorted(first)"),
    Mutant("last-seen-wins-tie", CONSENSUS, "if depth > depths[tip]:", "if depth >= depths[tip]:"),
    Mutant("histogram-side-left", STREAMS, 'side="right"', 'side="left"', count=3),
    Mutant("main-chain-tie-to-highest-id", CONSENSUS, "max(world.nodes, key=", "max(reversed(world.nodes), key="),
    Mutant("strict-arrival-test", WORKLOAD, "self.arrivals(ids, slot) <= now", "self.arrivals(ids, slot) < now"),
    Mutant("full-fill-stops-at-first-misfit", WORKLOAD, "while used + least <= capacity and", "while False and"),
    Mutant("unstable-sort-without-fallback", WORKLOAD, 'for kind in (None, "stable"):', "for kind in (None,):"),
    Mutant("light-scan-stops-too-early", WORKLOAD, "steps[i:].min(axis=0)", "steps[i:].max(axis=0)"),
    Mutant("uncle-window-off-by-one", CONSENSUS, "low = next_depth - self.uncle_window", "low = next_depth - self.uncle_window + 1"),
    Mutant("no-inclusion-bonus", "src/chainsim/incentives.py", "config.inclusion_reward_fraction * reward", "0.0"),
    Mutant("race-ahead-reversed", STREAMS, "random(RACE_CHUNK)[::-1].tolist()", "random(RACE_CHUNK).tolist()"),
    Mutant(
        "race-plan-always-alone", CONSENSUS,
        "streams.block_delays is None and not self.packs_each_block)", "True)",
    ),
    Mutant("tx-tie-after-event", WORKLOAD, "self.streams.held[1][1] <= time", "self.streams.held[1][1] < time"),
    Mutant("biased-miner-pick", STREAMS, "for w in weights]", "for w in [weights[0] / 1.01, *weights[1:]]]"),
    Mutant(
        "submitter-waits-its-delay", WORKLOAD,
        "np.where(self._submitters[ids] == self._miners[slot], t, t + delay)", "t + delay",
    ),
    Mutant("delay-from-slot-0", WORKLOAD, "self._delays[ids, slot]", "self._delays[ids, 0]"),
    Mutant("prune-on-own-chain", WORKLOAD, "gone = self._adopted[ids].all(axis=1)", "gone = self._adopted[ids, slot]"),
    Mutant(
        "reversed-id-tie-break", WORKLOAD,
        'order = np.argsort(-self._fees[first : first + k], kind="stable") + first',
        'order = first + k - 1 - np.argsort(-self._fees[first : first + k][::-1], kind="stable")',
    ),
    Mutant(
        "light-scan-stops-at-first-misfit", WORKLOAD,
        "less_equal(new, capacity, out)\n",
        "less_equal(new, capacity, out)\n            if i > 1:\n                out &= took[i - 2]\n",
    ),
]


def copy_tree(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, into / name)


def stale(mutant: Mutant) -> str:
    """Why ``mutant`` no longer applies to the code, or ""."""
    found = (ROOT / mutant.path).read_text().count(mutant.old)
    if found == mutant.count:
        return ""
    return f"{mutant.old!r} occurs {found} times in {mutant.path}, not {mutant.count}"


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    path.write_text(path.read_text().replace(mutant.old, mutant.new))


def tier_1(mutant: Mutant | None) -> tuple[int, float, str]:
    """Run Tier-1 on a patched copy: its exit code, seconds, and first failure."""
    with tempfile.TemporaryDirectory(prefix="chainsim-mutant-") as scratch:
        root = Path(scratch)
        copy_tree(root)
        if mutant is not None:
            apply(mutant, root)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
        started = time.perf_counter()
        done = subprocess.run(TIER_1, cwd=root, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - started
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode, seconds, failed.group(1) if failed else ""


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    broken = [f"unknown mutant {name}" for name in set(names) - {m.name for m in MUTANTS}]
    broken += [f"{m.name}: {why}" for m in chosen if (why := stale(m))]
    if broken:
        print("\n".join(broken), file=sys.stderr)
        return 2
    started = time.perf_counter()
    code, seconds, failed = tier_1(None)
    print(f"{'unpatched':<34} {'passes' if code == 0 else 'FAILS':<9} {seconds:6.1f} s  {failed}", flush=True)
    if code != 0:
        return 2
    survivors = 0
    for mutant in chosen:
        code, seconds, failed = tier_1(mutant)
        fate = {0: "SURVIVED", 1: "killed"}.get(code, f"exit {code}")
        survivors += code != 1
        print(f"{mutant.name:<34} {fate:<9} {seconds:6.1f} s  {failed}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
