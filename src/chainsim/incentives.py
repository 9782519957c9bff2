"""End-of-run reward distribution: block rewards, transaction fees, and
uncle/inclusion rewards for configurations that reference uncle blocks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .config import SimConfig
from .model import Block


@dataclass(slots=True)
class RewardEntry:
    block_rewards: float = 0.0
    tx_fees: float = 0.0
    uncle_rewards: float = 0.0
    inclusion_rewards: float = 0.0

    @property
    def total(self) -> float:
        return self.block_rewards + self.tx_fees + self.uncle_rewards + self.inclusion_rewards


class RewardLedger(dict):
    """minerId -> RewardEntry."""

    def entry(self, miner_id: int) -> RewardEntry:
        entry = self.get(miner_id)
        if entry is None:
            entry = RewardEntry()
            self[miner_id] = entry
        return entry

    def grand_total(self) -> float:
        # Left to right, whatever sum() does: Python 3.12's compensates.
        return reduce(add, (entry.total for entry in self.values()), 0.0)


def uncle_reward(d_uncle: int, g_uncle: int, d_block: int, r_block: float) -> float:
    """Reward to an uncle's miner when referenced by a block at ``d_block``.

    The reward shrinks linearly the later the uncle is referenced; outside
    the eligibility window the call is rejected (the consensus layer must
    never reference such an uncle).
    """
    if not d_block - g_uncle <= d_uncle < d_block:
        raise ValueError(
            f"uncle depth {d_uncle} not referenceable from block depth {d_block} "
            f"(window {g_uncle})"
        )
    return (d_uncle + (g_uncle + 1) - d_block) * r_block / (g_uncle + 1)


def distribute(
    main_chain_ids: list[int], registry: list[Block], config: SimConfig
) -> RewardLedger:
    """Pay every miner for its main-chain blocks, fees, and referenced uncles.

    Runs once at end of run.  Uncles referenced by a block that itself fell
    off the main chain earn nothing, and transactions inside uncle blocks
    are never rewarded.
    """
    reward = config.b_reward
    ledger = RewardLedger()
    for block_id in main_chain_ids[1:]:  # skip genesis
        block: Block = registry[block_id]
        entry = ledger.entry(block.miner_id)
        entry.block_rewards += reward
        entry.tx_fees += block.tx_fee_total
        for uncle_id in block.uncles:
            uncle = registry[uncle_id]
            ledger.entry(uncle.miner_id).uncle_rewards += uncle_reward(
                uncle.depth, config.g_uncle, block.depth, reward
            )
            entry.inclusion_rewards += config.inclusion_reward_fraction * reward
    return ledger
