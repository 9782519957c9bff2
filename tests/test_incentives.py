import math
from fractions import Fraction

import pytest

from chainsim.consensus import main_chain
from chainsim.incentives import RewardEntry, RewardLedger, distribute, uncle_reward
from chainsim.model import Block, BlockRegistry, World, make_genesis
from chainsim.runner import Simulation

from conftest import make_config


def full_run(**overrides):
    """A short full-mode run; returns its report and the main chain's transactions."""
    config = make_config(
        has_trans=True, t_technique="full", t_n=0.5, t_delay=1.0,
        b_interval=60.0, block_target=60, seed=2, **overrides,
    )
    sim = Simulation(config, 0)
    report = sim.run()
    registry = sim.world.registry
    txs = [t for bid in main_chain(sim.world)[1:] for t in registry[bid].transactions]
    assert txs  # the run included transactions
    return report, txs


def ledger_fees(report):
    return math.fsum(entry.tx_fees for entry in report.reward_ledger.values())


class TestTxFee:
    def test_size_model_uses_sampled_fee(self):
        # fee is computed at creation as size * unit price: 2 MB * 3 = 6
        report, txs = full_run(t_size="const:2", t_fee="const:3", b_size=4.0)
        assert all(t.weight == 2.0 and t.fee == 6.0 for t in txs)
        assert ledger_fees(report) == pytest.approx(6.0 * len(txs))

    def test_gas_model(self):
        # gas model: fee = used gas * gas price = 21,000 * 0.001
        report, txs = full_run(
            capacity_model="gas", b_size=100_000.0, t_size="const:21000", t_fee="const:0.001"
        )
        assert all(t.weight == 21_000.0 for t in txs)
        assert all(t.fee == pytest.approx(21.0) for t in txs)
        assert ledger_fees(report) == pytest.approx(21.0 * len(txs))

    def test_zero_gas(self):
        # a zero gas price earns nothing however much gas is used
        report, txs = full_run(
            capacity_model="gas", b_size=100_000.0, t_size="const:21000", t_fee="const:0"
        )
        assert all(t.fee == 0.0 for t in txs)
        assert ledger_fees(report) == 0.0


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


class TestDistribute:
    def _world_with_chain(self, blocks):
        registry = BlockRegistry()
        genesis = make_genesis()
        registry.add(genesis)
        chain = [genesis.id]
        for b in blocks:
            registry.add(b)
            chain.append(b.id)
        return registry, chain

    def test_single_empty_block(self):
        block = Block(id=1, depth=1, previous_id=0, timestamp=1.0, miner_id=3)
        registry, chain = self._world_with_chain([block])
        world = World(4, hash_powers=(0, 0, 0, 1.0))
        ledger = distribute(chain, registry, make_config(b_reward=2.0), world.nodes)
        assert ledger[3].total == 2.0
        assert world.nodes[3].balance == 2.0
        assert all(n.balance == 0.0 for n in world.nodes[:3])

    def test_two_uncles_inclusion_bonus(self):
        uncle_a = Block(id=10, depth=1, previous_id=0, timestamp=0.5, miner_id=1)
        uncle_b = Block(id=11, depth=1, previous_id=0, timestamp=0.6, miner_id=2)
        b1 = Block(id=1, depth=1, previous_id=0, timestamp=1.0, miner_id=0)
        b2 = Block(
            id=2, depth=2, previous_id=1, timestamp=2.0, miner_id=0,
            uncles=(10, 11), tx_fee_total=0.5,
        )
        registry, chain = self._world_with_chain([b1, b2])
        registry.add(uncle_a)
        registry.add(uncle_b)
        world = World(3, hash_powers=(0.5, 0.3, 0.2))
        params = make_config(b_reward=2.0, uncles_enabled=True, g_uncle=7)
        ledger = distribute(chain, registry, params, world.nodes)
        # includer: two block rewards + fees + 2 * (2/32)
        assert ledger[0].total == pytest.approx(4.0 + 0.5 + 2 * (2.0 / 32.0))
        assert ledger[0].inclusion_rewards == pytest.approx(0.125)
        # uncle miners: depth-1 uncles in a depth-2 block earn 7/8 of R each
        assert ledger[1].uncle_rewards == pytest.approx(uncle_reward(1, 7, 2, 2.0))
        assert ledger[2].uncle_rewards == pytest.approx(1.75)

    def test_fees_accumulate(self):
        b1 = Block(id=1, depth=1, previous_id=0, timestamp=1.0, miner_id=0, tx_fee_total=1.25)
        registry, chain = self._world_with_chain([b1])
        world = World(1, hash_powers=(1.0,))
        ledger = distribute(chain, registry, make_config(b_reward=2.0), world.nodes)
        assert ledger[0].tx_fees == 1.25
        assert ledger[0].total == 3.25

    def test_entry_total_is_component_sum(self):
        entry = RewardEntry(1.0, 0.25, 0.5, 0.125)
        assert entry.total == 1.875


class TestRunLevelInvariants:
    def test_conservation_identity(self):
        # Ethereum-style run with uncles and gas fees; ledger totals must
        # equal the independently recomputed identity to 1e-9.
        config = make_config(
            b_interval=12.42, b_delay=2.3, b_reward=3.0,
            has_trans=True, t_technique="light", t_n=20.0,
            capacity_model="gas", b_size=7_997_148.0,
            t_size="exp:80000", t_fee="const:1.5e-8",
            uncles_enabled=True, u_max=2, g_uncle=7,
            block_target=800, seed=6,
        )
        sim = Simulation(config, 0)
        report = sim.run()
        registry = sim.world.registry
        chain = main_chain(sim.world)
        fee_sum = math.fsum(registry[b].tx_fee_total for b in chain[1:])
        uncle_sum = 0.0
        uncle_count = 0
        for bid in chain[1:]:
            block = registry[bid]
            for uid in block.uncles:
                uncle_sum += uncle_reward(registry[uid].depth, 7, block.depth, 3.0)
                uncle_count += 1
        expected = (
            (len(chain) - 1) * 3.0
            + fee_sum
            + uncle_sum
            + uncle_count * 3.0 / 32.0
        )
        assert uncle_count > 0  # the run exercised the uncle path
        total = math.fsum(e.total for e in report.reward_ledger.values())
        assert total == pytest.approx(expected, abs=1e-9 * max(1.0, expected))

    def test_balances_equal_ledger_totals(self):
        config = make_config(
            b_delay=2.0, block_target=400,
            has_trans=True, t_technique="light", t_n=5.0, seed=3,
        )
        sim = Simulation(config, 0)
        report = sim.run()
        for node in sim.world.nodes:
            entry = report.reward_ledger.get(node.id)
            assert node.balance == (entry.total if entry else 0.0)

    def test_orphan_miners_get_zero_without_uncles(self):
        # With uncles disabled, miners whose every block went stale earn 0.
        config = make_config(b_interval=2.0, b_delay=6.0, block_target=600, seed=5)
        sim = Simulation(config, 0)
        report = sim.run()
        assert report.stale_rate > 0.2
        on_chain = {sim.world.registry[b].miner_id for b in main_chain(sim.world)[1:]}
        for node in sim.world.nodes:
            if node.id not in on_chain:
                assert node.balance == 0.0

    def test_ledger_components_reconcile_with_full_mode_tx_fees(self):
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=1.0,
            b_interval=60.0, b_size=0.01, t_size="const:0.000546",
            block_target=200, seed=11,
        )
        sim = Simulation(config, 0)
        report = sim.run()
        expected_fees = {}
        for bid in main_chain(sim.world)[1:]:
            block = sim.world.registry[bid]
            expected_fees.setdefault(block.miner_id, 0.0)
            expected_fees[block.miner_id] += math.fsum(t.fee for t in block.transactions)
        for miner_id, fees in expected_fees.items():
            assert report.reward_ledger[miner_id].tx_fees == pytest.approx(fees, rel=1e-12)
