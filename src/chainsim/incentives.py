"""End-of-run reward distribution: block rewards, transaction fees, and
uncle/inclusion rewards for configurations that reference uncle blocks."""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

from .config import SimConfig
from .model import World, view


def uncle_reward(d_uncle, g_uncle: int, d_block, r_block: float):
    """Reward to an uncle's miner when referenced by a block at ``d_block``.

    The reward shrinks linearly the later the uncle is referenced; outside
    the eligibility window the call is rejected (the consensus layer must
    never reference such an uncle).  Depths may be arrays, elementwise.
    """
    if not np.all((d_block - g_uncle <= d_uncle) & (d_uncle < d_block)):
        raise ValueError(
            f"uncle depth {d_uncle} not referenceable from block depth {d_block} "
            f"(window {g_uncle})"
        )
    return (d_uncle + (g_uncle + 1) - d_block) * r_block / (g_uncle + 1)


def distribute(chain: np.ndarray, world: World, config: SimConfig) -> dict[int, float]:
    """Each paid miner's reward: its main-chain blocks, their fees, its
    referenced uncles and its inclusion bonuses, each summed in chain order.

    Runs once at end of run, on the main chain's int64 ids.  Uncles
    referenced by a block that itself fell off the main chain earn nothing,
    and transactions inside uncle blocks are never rewarded.  Miners come in
    the order they first earn, walking the chain: a block's miner, then the
    miners of the uncles it references.
    """
    reward, depth, miner = config.b_reward, view(world.depth), view(world.miner)
    blocks = chain[1:]  # genesis earns nothing
    on_chain = np.zeros(len(depth), dtype=bool)
    on_chain[blocks] = True
    # Each uncle reference of a main-chain block, in chain order: ids grow along the chain.
    refs = [(b, u) for b, uncles in world.uncles.items() if on_chain[b] for u in uncles]
    includers, uncles = np.array(refs, dtype=np.int64).reshape(-1, 2).T
    block_miners, includer_miners, uncle_miners = miner[blocks], miner[includers], miner[uncles]
    fees = view(world.tx_fee_total)[blocks]
    uncle_rewards = uncle_reward(depth[uncles], config.g_uncle, depth[includers], reward)
    # Where each earner first earns: (chain index, 0) at its first block, or
    # (includer's chain index, 1, reference index) at its first uncle.
    first = {m: (int((block_miners == m).argmax()), 0) for m in _owners(block_miners)}
    for m in _owners(uncle_miners):
        at = int((uncle_miners == m).argmax())
        first[m] = min(first.get(m, (math.inf,)), (int(depth[includers[at]]) - 1, 1, at))
    bins = max(first, default=-1) + 1

    def paid(owners: np.ndarray, values) -> np.ndarray:
        # Each bin adds its owner's values in order from 0.0.
        return np.bincount(owners, np.broadcast_to(values, owners.shape), bins)

    totals = (
        paid(block_miners, reward) + paid(block_miners, fees) + paid(uncle_miners, uncle_rewards)
        + paid(includer_miners, config.inclusion_reward_fraction * reward)
    )
    return {m: float(totals[m]) for m in sorted(first, key=first.get)}


def _owners(miners: np.ndarray) -> list[int]:
    """The distinct ids in ``miners``, in id order."""
    return np.flatnonzero(np.bincount(miners)).tolist()


def grand_total(rewards: dict[int, float]) -> float:
    """All miners' rewards, added left to right in ``rewards``'s order."""
    # Left to right, whatever sum() does: Python 3.12's compensates.
    return reduce(add, rewards.values(), 0.0)
