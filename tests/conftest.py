import csv
import dataclasses

import numpy as np
import pytest

from chainsim.config import SimConfig
from chainsim.engine import RandomSource

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
def rng() -> RandomSource:
    return RandomSource(12345)


class FixedUniform:
    """RandomSource stand-in returning a scripted uniform sequence."""

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
