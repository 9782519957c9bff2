import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from chainsim import incentives
from chainsim.consensus import main_chain
from chainsim.incentives import distribute, grand_total, uncle_reward
from chainsim.model import World
from chainsim.runner import Simulation

from conftest import block_txs, make_config, put_block


def run_rewards(sim):
    """The finished run's reward for each paid miner."""
    return distribute(main_chain(sim.world), sim.world, sim.config)


def full_run(**overrides):
    """A short full-mode run; returns its rewards less the block rewards, and
    the main chain's transactions."""
    config = make_config(
        has_trans=True, t_technique="full", t_n=0.5, t_delay=1.0,
        b_interval=60.0, block_target=60, seed=2, **overrides,
    )
    sim = Simulation(config, 0)
    sim.run()
    chain = main_chain(sim.world)
    txs = [t for bid in chain[1:] for t in block_txs(sim.workload, bid)]
    assert txs  # the run included transactions
    return math.fsum(run_rewards(sim).values()) - config.b_reward * (len(chain) - 1), txs


class TestTxFee:
    def test_size_model_uses_sampled_fee(self):
        # fee is computed at creation as size * unit price: 2 MB * 3 = 6
        fees, txs = full_run(t_size="const:2", t_fee="const:3", b_size=4.0)
        assert all(weight == 2.0 and fee == 6.0 for _, _, weight, fee in txs)
        assert fees == pytest.approx(6.0 * len(txs))

    def test_gas_model(self):
        # gas model: fee = used gas * gas price = 21,000 * 0.001
        fees, txs = full_run(
            b_size=100_000.0, t_size="const:21000", t_fee="const:0.001"
        )
        assert all(weight == 21_000.0 for _, _, weight, _ in txs)
        assert all(fee == pytest.approx(21.0) for _, _, _, fee in txs)
        assert fees == pytest.approx(21.0 * len(txs))

    def test_zero_gas(self):
        # a zero gas price earns nothing however much gas is used
        fees, txs = full_run(
            b_size=100_000.0, t_size="const:21000", t_fee="const:0"
        )
        assert all(fee == 0.0 for _, _, _, fee in txs)
        assert fees == 0.0


class TestUncleReward:
    def test_earliest_inclusion(self):
        assert uncle_reward(5, 7, 6, 2.0) == pytest.approx(1.75)

    def test_latest_allowed_inclusion(self):
        assert uncle_reward(10, 7, 17, 2.0) == pytest.approx(0.25)

    def test_window_violation_rejected(self):
        with pytest.raises(ValueError):
            uncle_reward(10, 7, 18, 2.0)
        with pytest.raises(ValueError):
            uncle_reward(10, 7, 10, 2.0)  # uncle not older than the block
        with pytest.raises(ValueError):
            uncle_reward(12, 7, 10, 2.0)

    def test_exhaustive_window_against_rational_oracle(self):
        # Independent oracle: exact rational arithmetic of the linear decay.
        g = 7
        r_block = 2.0
        for d_uncle in range(0, 40):
            for d_block in range(d_uncle + 1, d_uncle + g + 1):
                expected = Fraction(d_uncle + g + 1 - d_block, g + 1) * Fraction(2)
                got = uncle_reward(d_uncle, g, d_block, r_block)
                assert got == pytest.approx(float(expected), abs=1e-12)
                assert got > 0.0

    def test_monotone_decreasing_and_bounded(self):
        g = 7
        for d_uncle in range(0, 20):
            rewards = [uncle_reward(d_uncle, g, db, 2.0) for db in range(d_uncle + 1, d_uncle + g + 1)]
            assert all(a > b for a, b in zip(rewards, rewards[1:]))
            assert max(rewards) == pytest.approx(2.0 * g / (g + 1))
            assert min(rewards) == pytest.approx(2.0 / (g + 1))


def world_with_chain(*rows):
    """A world whose main chain is genesis and then ``rows``, each the keyword
    arguments of one block on the last: ``miner``, and optionally
    ``uncles`` and ``tx_fee_total``.  Returns the world and the chain."""
    world = World([1.0])
    chain = [0]
    for row in rows:
        chain.append(put_block(world, len(chain), chain[-1], float(len(chain)), **row))
    return world, np.array(chain)


class TestDistribute:
    def test_single_empty_block(self):
        world, chain = world_with_chain(dict(miner=3))
        rewards = distribute(chain, world, make_config(b_reward=2.0))
        assert rewards == {3: 2.0}  # nobody else earns anything

    def test_two_uncles_inclusion_bonus(self):
        world = World([1.0])
        uncle_a = put_block(world, 1, 0, 0.5, 1)
        uncle_b = put_block(world, 1, 0, 0.6, 2)
        b1 = put_block(world, 1, 0, 1.0, 0)
        b2 = put_block(world, 2, b1, 2.0, 0, uncles=(uncle_a, uncle_b), tx_fee_total=0.5)
        params = make_config(b_reward=2.0, uncles_enabled=True, g_uncle=7)
        rewards = distribute(np.array([0, b1, b2]), world, params)
        # includer: two block rewards + fees + 2 * (2/32)
        assert rewards[0] == pytest.approx(4.0 + 0.5 + 2 * (2.0 / 32.0))
        # uncle miners: depth-1 uncles in a depth-2 block earn 7/8 of R each
        assert rewards[1] == pytest.approx(uncle_reward(1, 7, 2, 2.0))
        assert rewards[2] == pytest.approx(1.75)
        assert list(rewards) == [0, 1, 2]  # the order each first earns in

    def test_fees_accumulate(self):
        world, chain = world_with_chain(dict(miner=0, tx_fee_total=1.25), dict(miner=0, tx_fee_total=0.5))
        rewards = distribute(chain, world, make_config(b_reward=2.0))
        assert rewards == {0: 4.0 + 1.75}

    def test_entry_total_is_component_sum(self):
        # Miner 1 earns all four: two block rewards and their fees, added in
        # chain order, then an uncle reward, then an inclusion bonus.
        world = World([1.0])
        uncle = put_block(world, 1, 0, 0.5, 1)
        b1 = put_block(world, 1, 0, 1.0, 1, tx_fee_total=0.1)
        b2 = put_block(world, 2, b1, 2.0, 1, uncles=(uncle,), tx_fee_total=0.2)
        config = make_config(b_reward=0.3, uncles_enabled=True, g_uncle=7)
        rewards = distribute(np.array([0, b1, b2]), world, config)
        block_rewards, fees = 0.3 + 0.3, 0.1 + 0.2
        uncles, inclusion = uncle_reward(1, 7, 2, 0.3), config.inclusion_reward_fraction * 0.3
        assert rewards == {1: block_rewards + fees + uncles + inclusion}

    def test_first_earned_order_puts_an_uncle_miner_before_a_later_block_miner(self):
        # Walking the chain, miner 2 first earns for the uncle that block 2
        # references, before it mines block 3.
        world = World([1.0])
        uncle = put_block(world, 1, 0, 0.5, 2)
        b1 = put_block(world, 1, 0, 1.0, 0)
        b2 = put_block(world, 2, b1, 2.0, 1, uncles=(uncle,))
        b3 = put_block(world, 3, b2, 3.0, 2)
        rewards = distribute(np.array([0, b1, b2, b3]), world, make_config(uncles_enabled=True))
        assert list(rewards) == [0, 1, 2]

    def test_uncles_of_blocks_off_the_main_chain_earn_nothing(self):
        world = World([1.0])
        uncle = put_block(world, 1, 0, 0.5, 2)
        b1 = put_block(world, 1, 0, 1.0, 0)
        put_block(world, 2, b1, 2.0, 1, uncles=(uncle,))  # a stale block
        rewards = distribute(np.array([0, b1]), world, make_config(b_reward=2.0, uncles_enabled=True))
        assert rewards == {0: 2.0}

    def test_grand_total_adds_left_to_right(self, monkeypatch):
        # Compensated summation (Python 3.12's sum(), here math.fsum) would
        # give 0.6 rather than the left-to-right 0.6000000000000001.
        monkeypatch.setattr(incentives, "sum", math.fsum, raising=False)
        assert grand_total({m: v for m, v in enumerate((0.1, 0.2, 0.3))}) == (0.1 + 0.2) + 0.3 != 0.6


def reference_distribute(chain, world, config):
    """The per-block loop that ``distribute`` replaces, kept as its reference:
    each miner's block rewards, fees, uncle rewards and inclusion rewards as
    four running sums in chain order, and miners in the order they first earn."""
    sums = {}
    for block in chain[1:]:
        own = sums.setdefault(world.miner[block], [0.0, 0.0, 0.0, 0.0])
        own[0] += config.b_reward
        own[1] += world.tx_fee_total[block]
        for uncle in world.uncles.get(block, ()):
            paid = sums.setdefault(world.miner[uncle], [0.0, 0.0, 0.0, 0.0])
            paid[2] += uncle_reward(world.depth[uncle], config.g_uncle, world.depth[block], config.b_reward)
            own[3] += config.inclusion_reward_fraction * config.b_reward
    return {m: reward + fees + uncles + inclusion for m, (reward, fees, uncles, inclusion) in sums.items()}


class TestRunLevelInvariants:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(b_interval=12.0, b_delay=4.0, delay_mode="exponential", uncles_enabled=True, u_max=3,
                 g_uncle=3, has_trans=True, t_n=5.0, t_size="exp:0.01", t_fee="exp:2.0", b_size=0.2),
            dict(b_interval=30.0, b_delay=9.0, uncles_enabled=True, b_reward=0.3,
                 inclusion_reward_fraction=0.1, selector="stake", stakes=(0.1, 0.2, 0.3, 0.2, 0.2)),
            dict(b_interval=60.0, b_delay=5.0, has_trans=True, t_technique="full", t_n=0.5,
                 t_size="exp:0.002", t_fee="exp:0.5", b_size=0.01, block_target=150),
        ],
        ids=["uncles-light", "uncles-stake", "full"],
    )
    def test_distribute_equals_the_per_block_loop(self, overrides):
        # Every sum, and the order miners first earn in, as the loop gives them, bit for bit.
        config = make_config(**{"block_target": 600, "seed": 3, **overrides})
        sim = Simulation(config, 0)
        sim.run()
        chain = main_chain(sim.world)
        rewards = distribute(chain, sim.world, config)
        assert list(rewards.items()) == list(reference_distribute(chain, sim.world, config).items())
        assert len(rewards) > 1 and (sim.world.uncles or not config.uncles_enabled)

    def test_conservation_identity(self):
        # Ethereum-style run with uncles and gas fees; ledger totals must
        # equal the independently recomputed identity to 1e-9.
        config = make_config(
            b_interval=12.42, b_delay=2.3, b_reward=3.0,
            has_trans=True, t_technique="light", t_n=20.0,
            b_size=7_997_148.0,
            t_size="exp:80000", t_fee="const:1.5e-8",
            uncles_enabled=True, u_max=2, g_uncle=7,
            block_target=800, seed=6,
        )
        sim = Simulation(config, 0)
        sim.run()
        world = sim.world
        chain = main_chain(world)
        fee_sum = math.fsum(world.tx_fee_total[b] for b in chain[1:])
        uncle_sum = 0.0
        uncle_count = 0
        for bid in chain[1:]:
            for uid in world.uncles.get(bid, ()):
                uncle_sum += uncle_reward(world.depth[uid], 7, world.depth[bid], 3.0)
                uncle_count += 1
        expected = (
            (len(chain) - 1) * 3.0
            + fee_sum
            + uncle_sum
            + uncle_count * 3.0 / 32.0
        )
        assert uncle_count > 0  # the run exercised the uncle path
        total = math.fsum(run_rewards(sim).values())
        assert total == pytest.approx(expected, abs=1e-9 * max(1.0, expected))

    def test_orphan_miners_get_zero_without_uncles(self):
        # With uncles disabled, miners whose every block went stale earn 0.
        config = make_config(b_interval=2.0, b_delay=6.0, block_target=600, seed=5)
        sim = Simulation(config, 0)
        report = sim.run()
        assert report.stale_rate > 0.2
        on_chain = {sim.world.miner[b] for b in main_chain(sim.world)[1:]}
        rewards = run_rewards(sim)
        for node in sim.world.nodes:
            if node.id not in on_chain:
                assert node.id not in rewards
                assert report.reward_shares.get(node.id, 0.0) == 0.0

    def test_ledger_components_reconcile_with_full_mode_tx_fees(self):
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=1.0,
            b_interval=60.0, b_size=0.01, t_size="const:0.000546",
            block_target=200, seed=11,
        )
        sim = Simulation(config, 0)
        sim.run()
        expected_fees = {}
        chain = main_chain(sim.world)
        for bid in chain[1:]:
            miner_id = sim.world.miner[bid]
            expected_fees.setdefault(miner_id, 0.0)
            expected_fees[miner_id] += math.fsum(fee for _, _, _, fee in block_txs(sim.workload, bid))
        # Without a block reward, and with no uncles, a miner earns its fees alone.
        fees_only = distribute(chain, sim.world, dataclasses.replace(config, b_reward=0.0))
        assert fees_only.keys() == expected_fees.keys()
        for miner_id, fees in expected_fees.items():
            assert fees_only[miner_id] == pytest.approx(fees, rel=1e-12)
