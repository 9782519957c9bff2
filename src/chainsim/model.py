"""Domain records: blocks, per-node state, and the run's world."""

from __future__ import annotations

from dataclasses import dataclass, field

GENESIS_ID = 0
GENESIS_MINER = -1


@dataclass(slots=True)
class Block:
    """One block.  In full workload mode ``transactions`` holds each packed
    transaction as the plain tuple ``(id, timestamp, weight, fee)``, weight
    in MB or gas units; light mode holds none and tracks the per-block
    count/fee/weight aggregates instead, filled in when its batch is packed
    (by the end of the run)."""

    id: int
    depth: int
    previous_id: int | None  # None marks genesis
    timestamp: float
    miner_id: int
    weight: float = 0.0  # total transaction MB, or gas
    transactions: tuple[tuple[int, float, float, float], ...] = ()
    tx_count: int = 0
    tx_fee_total: float = 0.0
    uncles: tuple[int, ...] = ()


def make_genesis() -> Block:
    """Empty block at depth 0 installed on every node's chain at startup."""
    return Block(
        id=GENESIS_ID,
        depth=0,
        previous_id=None,
        timestamp=0.0,
        miner_id=GENESIS_MINER,
    )


@dataclass(slots=True)
class NodeState:
    """Per-node local chain view, adopted transactions, and uncle candidates.

    The local chain is a list of block ids indexed by depth: ``chain[d]`` is
    the block at depth ``d``, genesis at 0, so a reorganization only touches
    the blocks past the fork point.  ``tip`` caches the Block for chain[-1].
    """

    id: int
    chain: list[int] = field(default_factory=list)
    tip: Block | None = None
    # Adopted transactions and uncle candidates; kept for nodes that create blocks.
    chain_tx_ids: set[int] = field(default_factory=set)  # transactions ever adopted into the chain
    uncle_chain: dict[int, None] = field(default_factory=dict)  # candidate uncle ids, insertion-ordered

    def install_genesis(self, genesis: Block) -> None:
        self.chain = [genesis.id]
        self.tip = genesis


class World:
    """All mutable state of one simulation run.

    ``registry`` holds every block created in the run, indexed by id: ids
    are dense from genesis's 0, so a new block's id is ``len(registry)``.  A
    node that receives a block from a branch it has never seen rebuilds the
    path from it at once instead of modelling any fetch round-trips.
    ``included_uncles`` holds every uncle any block has referenced; it is
    filled as the referencing block is created, before any node receives it.
    """

    __slots__ = ("nodes", "registry", "genesis", "included_uncles")

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError("a run needs at least one node")
        self.genesis = make_genesis()
        self.registry: list[Block] = [self.genesis]
        self.nodes: list[NodeState] = []
        for i in range(n_nodes):
            node = NodeState(id=i)
            node.install_genesis(self.genesis)
            self.nodes.append(node)
        self.included_uncles: set[int] = set()
