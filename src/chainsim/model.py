"""Domain records: per-node state, and the run's world with its blocks as columns."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .config import SimConfig


@dataclass(slots=True)
class NodeState:
    """Per-node local chain view and uncle candidates.

    The local chain is ``tip``, a block id, and its ancestors, reached by
    following ``World.parent`` back to genesis at depth 0: the run's one
    block tree holds every chain, and a node holds its head.
    """

    id: int
    tip: int
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

    Each block of the run is one row of the block columns, ``array``s
    indexed by block id from genesis's 0: ``depth``, ``parent`` (-1 for
    genesis), ``timestamp``, ``miner``, and the ``tx_count`` and
    ``tx_fee_total`` that packing fills in by the end of the run; a run
    without transactions leaves both 0.  No output reads a block's total
    size, so no column holds it.  ``uncles`` maps a referencing block to its
    uncle ids, and ``transactions`` a full-mode block to its packed ids, in
    order.  ``included_uncles`` holds every uncle any block has referenced,
    from the moment the referencing block is created.
    """

    __slots__ = ("weights", "miner_ids", "nodes", "included_uncles", "uncles", "transactions",
                 "depth", "parent", "timestamp", "miner", "tx_count", "tx_fee_total")

    def __init__(self, weights: Sequence[float]) -> None:
        self.miner_ids = [i for i, w in enumerate(weights) if w > 0]
        if not self.miner_ids:
            raise ValueError("a run needs a node with a positive creation weight")
        cut = self.miner_ids[-1] + 1
        self.weights = list(weights[:cut])
        # Row 0 is genesis, which no node mined and which starts every chain.
        self.depth = array("q", [0])
        self.parent = array("q", [-1])
        self.timestamp = array("d", [0.0])
        self.miner = array("q", [-1])
        self.tx_count = array("q", [0])
        self.tx_fee_total = array("d", [0.0])
        self.uncles: dict[int, tuple[int, ...]] = {}
        self.transactions: dict[int, np.ndarray] = {}
        self.nodes = [NodeState(i, 0) for i in range(cut)]
        self.included_uncles: set[int] = set()

    def add_block(self, parent: int, timestamp: float, miner: int, uncles: tuple[int, ...] = ()) -> int:
        """Add a block on ``parent``, with no transactions yet; return its id."""
        block = len(self.depth)
        self.depth.append(self.depth[parent] + 1)
        self.parent.append(parent)
        self.timestamp.append(timestamp)
        self.miner.append(miner)
        self.tx_count.append(0)
        self.tx_fee_total.append(0.0)
        if uncles:
            self.uncles[block] = uncles
        return block


def view(column: array) -> np.ndarray:
    """A writable numpy view of a block column.  An ``array`` cannot grow
    while a view of it lives: drop the view before the next block is added."""
    return np.frombuffer(column, np.int64 if column.typecode == "q" else np.float64)
