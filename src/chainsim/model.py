"""Domain records: blocks, per-node state, and the run's world."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .config import SimConfig


@dataclass(slots=True)
class Block:
    """One block.  In full workload mode ``transactions`` holds the ids it
    packed, in order, as one int64 array: the workload's columns hold their
    times, weights (MB or gas units) and fees.  Light mode holds none and
    tracks the per-block count/fee/weight aggregates instead, filled in when
    its batch is packed (by the end of the run)."""

    id: int
    depth: int
    previous_id: int | None  # None marks genesis
    timestamp: float
    miner_id: int
    weight: float = 0.0  # total transaction MB, or gas
    transactions: np.ndarray | tuple[()] = ()  # empty but in full mode
    tx_count: int = 0
    tx_fee_total: float = 0.0
    uncles: tuple[int, ...] = ()


@dataclass(slots=True)
class NodeState:
    """Per-node local chain view and uncle candidates.

    The local chain is a list of block ids indexed by depth: ``chain[d]`` is
    the block at depth ``d``, genesis at 0, so a reorganization only touches
    the blocks past the fork point.  ``tip`` caches the Block for chain[-1].
    """

    id: int
    chain: list[int]
    tip: Block
    # Uncle candidates, kept for nodes that create blocks.
    uncle_chain: dict[int, None] = field(default_factory=dict)  # candidate uncle ids, insertion-ordered


def creation_weights(config: SimConfig) -> list[float]:
    """Each listed node's share of block creation: ``miners``, or ``stakes``
    under ``selector = stake``, over their sum.  The stakes default to ``miners``."""
    by_stake = config.selector == "stake" and config.stakes is not None
    raw = config.stakes if by_stake else config.miners
    total = reduce(add, raw, 0.0)  # left to right, whatever sum() does
    return [w / total for w in raw]


class World:
    """All mutable state of one simulation run.

    ``weights`` is each node's share of block creation and ``miner_ids`` the
    nodes with a positive share, in id order.  Nodes are built up to the last
    miner only: one above it mines nothing, and its chain could at most tie in
    depth the chain of the miner it came from, a tie ``main_chain`` gives to
    the lower id.  A zero-weight node below some miner can win that tie.

    ``registry`` holds every block created in the run, indexed by id: ids
    are dense from genesis's 0, so a new block's id is ``len(registry)``.  A
    node that receives a block from a branch it has never seen rebuilds the
    path from it at once instead of modelling any fetch round-trips.
    ``included_uncles`` holds every uncle any block has referenced; it is
    filled as the referencing block is created, before any node receives it.
    """

    __slots__ = ("weights", "miner_ids", "nodes", "registry", "included_uncles")

    def __init__(self, weights: Sequence[float]) -> None:
        self.miner_ids = [i for i, w in enumerate(weights) if w > 0]
        if not self.miner_ids:
            raise ValueError("a run needs a node with a positive creation weight")
        cut = self.miner_ids[-1] + 1
        self.weights = list(weights[:cut])
        # Genesis, which no node mined, starts every chain.
        genesis = Block(id=0, depth=0, previous_id=None, timestamp=0.0, miner_id=-1)
        self.registry: list[Block] = [genesis]
        self.nodes = [NodeState(i, [genesis.id], genesis) for i in range(cut)]
        self.included_uncles: set[int] = set()
