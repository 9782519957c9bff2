"""Domain records: transactions, blocks, per-node state, and the block registry."""

from __future__ import annotations

from dataclasses import dataclass, field

GENESIS_ID = 0
GENESIS_MINER = -1


@dataclass(slots=True)
class Transaction:
    id: int
    timestamp: float
    submitter_id: int
    weight: float  # MB, or gas units under the gas capacity model
    fee: float


@dataclass(slots=True)
class Block:
    """One block. ``transactions`` holds objects only in full workload mode;
    light mode tracks the per-block count/fee/weight aggregates instead."""

    id: int
    depth: int
    previous_id: int | None  # None marks genesis
    timestamp: float
    miner_id: int
    weight: float = 0.0  # total transaction MB, or gas under the gas capacity model
    transactions: tuple[Transaction, ...] = ()
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


class BlockRegistry:
    """Every block ever created in a run, by id.

    Keeping the global registry lets a node that receives a block from a
    branch it has never seen reconstruct the full path immediately instead
    of modelling any fetch round-trips.
    """

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: dict[int, Block] = {}

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    def __getitem__(self, block_id: int) -> Block:
        return self._blocks[block_id]

    def add(self, block: Block) -> None:
        self._blocks[block.id] = block


@dataclass(slots=True)
class NodeState:
    """Per-node balance, local chain view, adopted transactions, and uncle bookkeeping.

    The local chain is stored as an id list plus an id->index map so that a
    reorganization only touches the blocks past the fork point.  ``tip``
    caches the Block object for chain[-1].
    """

    id: int
    hash_power: float = 0.0  # fraction of network hash power; 0 marks a non-miner
    stake: float = 0.0
    balance: float = 0.0
    chain: list[int] = field(default_factory=list)
    chain_pos: dict[int, int] = field(default_factory=dict)
    tip: Block | None = None
    # Adopted transactions and uncle bookkeeping; kept for nodes that create blocks.
    chain_tx_ids: set[int] = field(default_factory=set)  # transactions ever adopted into the chain
    uncle_chain: dict[int, None] = field(default_factory=dict)  # candidate uncle ids, insertion-ordered
    included_uncles: set[int] = field(default_factory=set)  # uncle ids seen referenced by adopted blocks

    def install_genesis(self, genesis: Block) -> None:
        self.chain = [genesis.id]
        self.chain_pos = {genesis.id: 0}
        self.tip = genesis


class World:
    """All mutable state of one simulation run."""

    __slots__ = (
        "nodes",
        "registry",
        "genesis",
        "included_uncles",
        "blocks_created",
        "stale_creation_events",
        "_next_block_id",
        "_next_tx_id",
    )

    def __init__(self, n_nodes: int, hash_powers=(), stakes=()) -> None:
        if n_nodes < 1:
            raise ValueError("a run needs at least one node")
        self.genesis = make_genesis()
        self.registry = BlockRegistry()
        self.registry.add(self.genesis)
        self.nodes: list[NodeState] = []
        for i in range(n_nodes):
            node = NodeState(
                id=i,
                hash_power=hash_powers[i] if i < len(hash_powers) else 0.0,
                stake=stakes[i] if i < len(stakes) else 0.0,
            )
            node.install_genesis(self.genesis)
            self.nodes.append(node)
        self.included_uncles: set[int] = set()  # referenced anywhere in the run
        self.blocks_created = 0
        self.stale_creation_events = 0
        self._next_block_id = GENESIS_ID + 1
        self._next_tx_id = 1

    def new_block_id(self) -> int:
        bid = self._next_block_id
        self._next_block_id += 1
        return bid

    def new_tx_id(self) -> int:
        tid = self._next_tx_id
        self._next_tx_id += 1
        return tid
