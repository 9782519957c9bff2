"""Mutation check: every mutant below must make Tier-1 fail.

    python tests/mutants.py [NAME ...]

A mutant is a named text patch of one source file: a known way for the
code to go wrong.  For each one, the script copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` to a temporary directory, applies the
patch there, and runs Tier-1 with ``-x -q``.  A failing test kills the
mutant; a mutant the suite passes survives.  The unpatched copy runs first
and must pass, or nothing is killed by the mutants themselves.

Each mutant names its ``killers``, the tests that killed it last time, and
those run first, alone.  If one fails, the mutant is killed, as the whole
suite would have been failed by it; only if all pass does the whole of
Tier-1 run, so every verdict is the one the whole suite gives.  The table
gives each mutant's fate, its time, and the test that killed it, marked
``(new killer)`` where that is not one of its ``killers``.

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
from collections.abc import Iterator
from contextlib import contextmanager
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
    killers: tuple[str, ...] = ()  # test ids, run first, alone


CONSENSUS, NETWORK, WORKLOAD = "src/chainsim/consensus.py", "src/chainsim/network.py", "src/chainsim/workload.py"
STREAMS, INCENTIVES = "src/chainsim/streams.py", "src/chainsim/incentives.py"
# Test files, as the killers name them.
T_CONSENSUS, T_WORKLOAD, T_STREAMS = "tests/test_consensus.py", "tests/test_workload.py", "tests/test_streams.py"
T_NETWORK, T_INCENTIVES = "tests/test_network.py", "tests/test_incentives.py"
MUTANTS = [
    Mutant(
        "rearm-reverse-order", CONSENSUS, "for node_id in node_ids:", "for node_id in reversed(node_ids):",
        killers=(f"{T_CONSENSUS}::TestOnBlockReceive::test_batched_delivery_in_node_order",),
    ),
    Mutant(
        "no-rearm-after-reorg", CONSENSUS, "if rearm:", "if rearm and parent == tip:",
        killers=(f"{T_CONSENSUS}::TestOnBlockReceive::test_replace_adopts_deeper_branch_exactly",),
    ),
    Mutant(
        "absorb-reorg-head-only", CONSENSUS,
        "for joined in branch(world, block, tip):\n                            self._absorb(node, joined)",
        "self._absorb(node, block)",
        killers=(f"{T_WORKLOAD}::TestPackingOracle::test_small_chunks_split_and_empty",),
    ),
    Mutant(
        "no-uncle-window-bound", CONSENSUS, " and depths[tip] < lowest_tip:", ":",
        killers=(f"{T_CONSENSUS}::TestOnBlockReceive::test_block_below_the_uncle_window_is_not_kept",),
    ),
    Mutant(
        "inclusive-uncle-window-bound", CONSENSUS, "depths[tip] < lowest_tip", "depths[tip] <= lowest_tip",
        killers=(f"{T_CONSENSUS}::TestOnBlockReceive::test_block_below_the_uncle_window_is_not_kept",),
    ),
    Mutant(
        "late-constant-delivery", NETWORK,
        "at + self.block_delay, receive", "at + self.block_delay + 1.0, receive",
        killers=(f"{T_NETWORK}::TestBroadcastBlock::test_constant_delay_fanout",),
    ),
    Mutant(
        "sorted-earners", INCENTIVES, "sorted(first, key=first.get)", "sorted(first)",
        killers=(
            f"{T_INCENTIVES}::TestRunLevelInvariants::test_distribute_equals_the_per_block_loop[uncles-stake]",
        ),
    ),
    Mutant(
        "last-seen-wins-tie", CONSENSUS, "if depth > depths[tip]:", "if depth >= depths[tip]:",
        killers=(f"{T_CONSENSUS}::TestOnBlockReceive::test_equal_depth_first_seen_wins",),
    ),
    Mutant(
        "histogram-side-left", STREAMS, 'side="right"', 'side="left"', count=3,
        killers=(f"{T_STREAMS}::test_histogram_uniform_on_a_cumulative_probability_takes_the_next_value",),
    ),
    Mutant(
        "main-chain-tie-to-highest-id", CONSENSUS, "max(world.nodes, key=", "max(reversed(world.nodes), key=",
        killers=(f"{T_CONSENSUS}::TestMainChain::test_tie_broken_by_lowest_node_id",),
    ),
    Mutant(
        "strict-arrival-test", WORKLOAD, "self.arrivals(ids, slot) <= now", "self.arrivals(ids, slot) < now",
        killers=(f"{T_WORKLOAD}::TestFullMode::test_propagation_delay_gates_pool_entry",),
    ),
    Mutant(
        "full-fill-stops-at-first-misfit", WORKLOAD, "while used + least <= capacity and", "while False and",
        killers=(f"{T_WORKLOAD}::TestPackingOracle::test_every_block_matches_rebuilt_pool",),
    ),
    Mutant(
        "unstable-sort-without-fallback", WORKLOAD, 'for kind in (None, "stable"):', "for kind in (None,):",
        killers=(f"{T_WORKLOAD}::TestSharedPool::test_equal_fees_of_different_sizes_are_sorted_stably",),
    ),
    Mutant(
        "light-scan-stops-too-early", WORKLOAD, "steps[i:].min(axis=0)", "steps[i:].max(axis=0)",
        killers=(f"{T_WORKLOAD}::TestSharedPool::test_batch_size_leaves_runs_unchanged",),
    ),
    Mutant(
        "uncle-window-off-by-one", CONSENSUS,
        "low = next_depth - self.uncle_window", "low = next_depth - self.uncle_window + 1",
        killers=(f"{T_CONSENSUS}::TestEligibleUncles::test_depth_window_inclusive_boundary",),
    ),
    Mutant(
        "no-inclusion-bonus", INCENTIVES, "config.inclusion_reward_fraction * reward", "0.0",
        killers=(f"{T_INCENTIVES}::TestDistribute::test_two_uncles_inclusion_bonus",),
    ),
    Mutant(
        "race-ahead-reversed", STREAMS, "random(RACE_CHUNK)[::-1].tolist()", "random(RACE_CHUNK).tolist()",
        killers=(f"{T_STREAMS}::test_race_gaps_across_chunk_edges_match_single_draws",),
    ),
    Mutant(
        "race-plan-always-alone", CONSENSUS,
        "streams.block_delays is None and not self.packs_each_block)", "True)",
        killers=(f"{T_STREAMS}::test_race_read_ahead_is_given_back_before_a_buffered_half",),
    ),
    Mutant(
        "tx-tie-after-event", WORKLOAD, "self.streams.held[1][1] <= time", "self.streams.held[1][1] < time",
        killers=(f"{T_WORKLOAD}::TestFullMode::test_a_transaction_at_an_event_s_time_is_filed_first[at]",),
    ),
    Mutant(
        "biased-miner-pick", STREAMS, "for w in weights]", "for w in [weights[0] / 1.01, *weights[1:]]]",
        killers=(f"{T_STREAMS}::test_each_miner_s_mean_race_gap_is_b_interval_over_its_weight",),
    ),
    Mutant(
        "submitter-waits-its-delay", WORKLOAD,
        "np.where(self._submitters[ids] == self._miners[slot], t, t + delay)", "t + delay",
        killers=(f"{T_WORKLOAD}::TestFullMode::test_propagation_delay_gates_pool_entry",),
    ),
    Mutant(
        "delay-from-slot-0", WORKLOAD, "self._delays[ids, slot]", "self._delays[ids, 0]",
        killers=(f"{T_NETWORK}::TestBroadcastTx::test_exponential_draws_every_recipient_in_node_order",),
    ),
    Mutant(
        "prune-on-own-chain", WORKLOAD, "gone = self._adopted[ids].all(axis=1)", "gone = self._adopted[ids, slot]",
        killers=(f"{T_WORKLOAD}::TestPackingOracle::test_every_block_matches_rebuilt_pool",),
    ),
    Mutant(
        "reversed-id-tie-break", WORKLOAD,
        'order = np.argsort(-self._fees[first : first + k], kind="stable") + first',
        'order = first + k - 1 - np.argsort(-self._fees[first : first + k][::-1], kind="stable")',
        killers=(f"{T_WORKLOAD}::TestPackingOracle::test_small_chunks_keep_the_fee_order[tied-2]",),
    ),
    Mutant(
        "light-scan-stops-at-first-misfit", WORKLOAD,
        "less_equal(new, capacity, out)\n",
        "less_equal(new, capacity, out)\n            if i > 1:\n                out &= took[i - 2]\n",
        killers=(f"{T_WORKLOAD}::TestSharedPool::test_vectorized_packing_matches_object_oracle",),
    ),
    Mutant(
        "transactions-at-zero-rate", "src/chainsim/config.py", " and self.t_n > 0", "",
        killers=(f"{T_WORKLOAD}::TestFullMode::test_zero_rate_is_a_run_without_transactions",),
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


@contextmanager
def patched(mutant: Mutant | None) -> Iterator[Path]:
    """A temporary copy of the tree, with ``mutant`` applied if it is given."""
    with tempfile.TemporaryDirectory(prefix="chainsim-mutant-") as scratch:
        root = Path(scratch)
        copy_tree(root)
        if mutant is not None:
            apply(mutant, root)
        yield root


def tier_1(root: Path, tests: tuple[str, ...] = ()) -> tuple[int, float, str]:
    """Run Tier-1, or only ``tests``, in ``root``: its exit code, seconds, and first failure."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    started = time.perf_counter()
    done = subprocess.run([*TIER_1, *tests], cwd=root, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - started
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode, seconds, failed.group(1) if failed else ""


def verdict(mutant: Mutant) -> tuple[int, float, str]:
    """Tier-1's exit code on ``mutant``, the seconds taken, and the test that
    killed it: its ``killers`` first, then, if none of them fails, the whole suite."""
    with patched(mutant) as root:
        code, seconds, failed = tier_1(root, mutant.killers) if mutant.killers else (0, 0.0, "")
        if code != 1:
            code, more, failed = tier_1(root)
            seconds += more
    return code, seconds, failed


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    broken = [f"unknown mutant {name}" for name in set(names) - {m.name for m in MUTANTS}]
    broken += [f"{m.name}: {why}" for m in chosen if (why := stale(m))]
    if broken:
        print("\n".join(broken), file=sys.stderr)
        return 2
    started = time.perf_counter()
    with patched(None) as root:
        code, seconds, failed = tier_1(root)
    print(f"{'unpatched':<34} {'passes' if code == 0 else 'FAILS':<9} {seconds:6.1f} s  {failed}", flush=True)
    if code != 0:
        return 2
    survivors = 0
    for mutant in chosen:
        code, seconds, failed = verdict(mutant)
        fate = {0: "SURVIVED", 1: "killed"}.get(code, f"exit {code}")
        survivors += code != 1
        new = " (new killer)" if code == 1 and failed not in mutant.killers else ""
        print(f"{mutant.name:<34} {fate:<9} {seconds:6.1f} s  {failed}{new}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
