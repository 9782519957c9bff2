import csv
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from chainsim.config import SimConfig
from chainsim.runner import Simulation
from chainsim.streams import Streams

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


def fractions(counts):
    """``counts`` over their total: a valid miners or stakes list."""
    total = sum(counts)
    return tuple(c / total for c in counts)


@st.composite
def selections(draw):
    """``(selector, miners, stakes, cut)``: 1-5 creators' weights with zeros
    anywhere but last, and ``cut`` the last creator's id + 1."""
    selector = draw(st.sampled_from(["pow", "stake", "roundrobin"]))
    weights = draw(st.lists(st.integers(0, 3), max_size=4)) + [draw(st.integers(1, 3))]
    if selector != "stake":
        return selector, fractions(weights), None, len(weights)
    power = draw(
        st.lists(st.integers(0, 3), min_size=len(weights), max_size=len(weights)).filter(any)
    )
    return selector, fractions(power), fractions(weights), len(weights)


def planned_alone(config) -> bool:
    """Whether the engine built for ``config`` plans its race as the run's only draw."""
    with mock.patch.object(Streams, "races", autospec=True, return_value=[]) as races:
        Simulation(config, 0)
    (_, _, alone), _ = races.call_args
    return alone


def put_block(world, depth, parent, timestamp, miner, *, uncles=(), tx_count=0, tx_fee_total=0.0):
    """Append a row to ``world``'s block columns as given, whether or not it
    fits the tree, and return its id; ``uncles`` join no referenced set."""
    block = len(world.depth)
    for column, value in (
        (world.depth, depth), (world.parent, parent), (world.timestamp, timestamp), (world.miner, miner),
        (world.tx_count, tx_count), (world.tx_fee_total, tx_fee_total),
    ):
        column.append(value)
    if uncles:
        world.uncles[block] = tuple(uncles)
    return block


def ancestry(world, head) -> list[int]:
    """Genesis-to-head ids, found by following the parent column."""
    path = []
    block = head
    while block != -1:
        path.append(block)
        block = world.parent[block]
    return path[::-1]


def chain_of(world, node) -> list[int]:
    """``node``'s local chain as block ids indexed by depth: its tip and the
    tip's ancestors in ``world``'s block columns."""
    return ancestry(world, node.tip)


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
    ids = np.array([tx_id for _, tx_id in pending_order(workload)], np.int64)
    slots = [workload.arrivals(ids, slot).tolist() for slot in range(len(workload.world.miner_ids))]
    return {tx_id: tuple(row) for tx_id, *row in zip(ids.tolist(), *slots)}


def block_txs(workload, block) -> tuple[tuple[int, float, float, float], ...]:
    """Block ``block``'s transactions in packing order, each the tuple ``(id, timestamp, weight,
    fee)`` rebuilt from ``workload``'s columns at the ids the block holds."""
    ids = workload.world.transactions.get(block, np.empty(0, np.int64))
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

    def random(self, size=None, out=None):
        """One scripted value, or an array of the next ``size`` of them, or ``out`` filled with them."""
        if out is not None:
            out[:] = self.random(len(out))
            return out
        if size is not None:
            return np.array([self.random() for _ in range(size)])
        value = self.values[self.calls % len(self.values)]
        self.calls += 1
        return value
