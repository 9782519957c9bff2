import csv
import dataclasses

import numpy as np
import pytest

from chainsim.config import SimConfig
from chainsim.model import Block, World

SKEWED_MINERS = (0.40, 0.30, 0.15, 0.10, 0.05)


def make_config(**overrides) -> SimConfig:
    """A small, fast baseline config for unit-level runs."""
    base = SimConfig(
        b_interval=600.0,
        b_delay=0.0,
        b_size=1.0,
        b_reward=2.0,
        has_trans=False,
        t_technique="light",
        t_n=0.0,
        n_n=5,
        miners=SKEWED_MINERS,
        block_target=200,
        runs=1,
        seed=42,
    )
    if "sim_time" in overrides and "block_target" not in overrides:
        overrides.setdefault("block_target", None)
    return dataclasses.replace(base, **overrides)


def genesis() -> Block:
    """The genesis block every ``World`` starts its chains from."""
    return World([1.0]).registry[0]


def ancestry(registry, head) -> list[int]:
    """Genesis-to-head ids, found by following previous_id links."""
    path = []
    block = head
    while block is not None:
        path.append(block.id)
        block = registry[block.previous_id] if block.previous_id is not None else None
    return path[::-1]


def chain_of(world, node) -> list[int]:
    """``node``'s local chain as block ids indexed by depth: its tip and the
    tip's ancestors in ``world``'s registry."""
    return ancestry(world.registry, node.tip)


def record_filing(sim) -> list:
    """Record each ``(submitter, tx, delays)`` that ``sim``'s workload files,
    one per transaction, by hooking its batch entry point ``file``;
    ``delays`` is the row of miner delays given, or None."""
    filed = []
    workload, file = sim.workload, type(sim.workload).file

    def recording(first, submitters, times, weights, fees, delays=None):
        columns = (np.asarray(column).tolist() for column in (submitters, times, weights, fees))
        for i, (submitter, *row) in enumerate(zip(*columns)):
            filed.append((submitter, (first + i, *row), None if delays is None else tuple(delays[i])))
        file(workload, first, submitters, times, weights, fees, delays)

    workload.file = recording
    return filed


def file_one(workload, submitter, tx, delays=None) -> None:
    """File ``tx``, the tuple ``(id, timestamp, weight, fee)`` that
    ``submitter`` created, as a batch of one; ``delays``, if given, holds
    each miner's delay in slot order."""
    tx_id, *row = tx
    workload.file(tx_id, [submitter], *([value] for value in row), None if delays is None else [delays])


def pending_order(workload) -> list[tuple[float, int]]:
    """The pending ``(-fee, id)`` keys, in packing order, from the chunks' ids and negated fees."""
    return [
        (key, tx_id)
        for ids, keys in zip(workload.pending, workload._keys, strict=True)
        for tx_id, key in zip(ids, keys, strict=True)
    ]


def pending_arrivals(workload) -> dict[int, tuple[float, ...]]:
    """A copy of the pending transactions, in packing order: each id with
    its arrival at each miner, in slot order."""
    return {tx_id: tuple(workload._arrivals[tx_id].tolist()) for _, tx_id in pending_order(workload)}


def block_txs(workload, block) -> tuple[tuple[int, float, float, float], ...]:
    """``block``'s transactions in packing order, each the tuple ``(id, timestamp, weight,
    fee)`` rebuilt from ``workload``'s columns at the ids the block holds."""
    ids = np.asarray(block.transactions, dtype=np.int64)
    columns = (ids, workload.times[ids], workload._weights[ids], workload._fees[ids])
    return tuple(zip(*(column.tolist() for column in columns)))


def adopted_ids(workload, miner_id) -> set[int]:
    """The ids of the transactions that the chain of ``miner_id`` has adopted."""
    slot = workload.world.miner_ids.index(miner_id)
    return set(np.flatnonzero(workload._adopted[:, slot]).tolist())


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_wall_clock(rows):
    """Drop the wall-clock column/row, the only nondeterministic output."""
    header = rows[0]
    if "wall_clock_s" in header:
        idx = header.index("wall_clock_s")
        return [row[:idx] + row[idx + 1 :] for row in rows]
    return [row for row in rows if row[0] != "wall_clock_s"]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


class FixedUniform:
    """``np.random.Generator`` stand-in returning a scripted uniform sequence."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self, size=None):
        """One scripted value, or an array of the next ``size`` of them."""
        if size is not None:
            return np.array([self.random() for _ in range(size)])
        value = self.values[self.calls % len(self.values)]
        self.calls += 1
        return value
