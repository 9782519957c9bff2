import numpy as np
import pytest

from chainsim.consensus import ChainAction, ConsensusEngine, main_chain
from chainsim.engine import EventKind, EventQueue, RandomSource, run_loop
from chainsim.model import Block, Transaction, World
from chainsim.network import Network
from chainsim.runner import Simulation, run_single
from chainsim.workload import TxWorkload

from conftest import SKEWED_MINERS, make_config


def make_engine(
    n_nodes=2,
    hash_powers=(0.5, 0.5),
    block_interval=10.0,
    block_delay=0.0,
    uncles=False,
    full=False,
    capacity=1.0,
    tx_rate=0.0,
    seed=1,
):
    config = make_config(
        n_n=n_nodes,
        miners=hash_powers,
        b_interval=block_interval,
        b_delay=block_delay,
        b_size=capacity,
        uncles_enabled=uncles,
        has_trans=full,
        t_technique="full" if full else "light",
        t_n=tx_rate,
        t_size="const:0.001",
        t_fee="const:1.0",
        t_delay=0.0,
    )
    world = World(n_nodes, hash_powers=hash_powers)
    queue = EventQueue()
    rng = RandomSource(seed)
    network = Network(queue, rng, config)
    workload = TxWorkload(world, queue, rng, config)
    return ConsensusEngine(world, queue, rng, config, network, workload), world, queue


def ancestry(registry, head):
    """Genesis-to-head ids, found by following previous_id links."""
    path = []
    block = head
    while block is not None:
        path.append(block.id)
        block = registry[block.previous_id] if block.previous_id is not None else None
    return path[::-1]


def append_block(engine, world, miner_id, *, uncles=(), ts=None):
    """Force-create a block on the miner's current tip (helper for receive tests)."""
    miner = world.nodes[miner_id]
    parent = miner.tip
    block = Block(
        id=world.new_block_id(),
        depth=parent.depth + 1,
        previous_id=parent.id,
        timestamp=parent.timestamp + 1.0 if ts is None else ts,
        miner_id=miner_id,
        uncles=tuple(uncles),
    )
    world.registry.add(block)
    miner.chain_pos[block.id] = len(miner.chain)
    miner.chain.append(block.id)
    miner.tip = block
    return block


class TestScheduleNextCreation:
    def test_single_miner_exponential_mean(self):
        engine, world, queue = make_engine(1, (1.0,), block_interval=600.0)
        miner = world.nodes[0]
        n = 10_000
        total = 0.0
        for _ in range(n):
            total += engine.schedule_next_creation(miner, 0.0)
        assert len(queue) == n
        assert abs(total / n - 600.0) < 18.0  # 3 sigma on the exponential mean

    def test_rate_scales_with_weight(self):
        engine, world, _ = make_engine(2, (0.25, 0.75), block_interval=100.0)
        n = 8_000
        mean0 = sum(engine.schedule_next_creation(world.nodes[0], 0.0) for _ in range(n)) / n
        mean1 = sum(engine.schedule_next_creation(world.nodes[1], 0.0) for _ in range(n)) / n
        assert abs(mean0 - 400.0) < 14.0
        assert abs(mean1 - 100.0 * 4 / 3) < 5.0

    def test_event_records_parent_tip(self):
        engine, world, queue = make_engine(1, (1.0,))
        at = engine.schedule_next_creation(world.nodes[0], 0.0)
        time, _, kind, target, payload = queue.next_event()
        assert payload is world.nodes[0].tip
        assert (time, kind, target) == (at, EventKind.BLOCK_CREATE, 0)

    def test_zero_weight_miner_rejected(self):
        engine, world, _ = make_engine(2, (1.0, 0.0))
        with pytest.raises(ValueError):
            engine.schedule_next_creation(world.nodes[1], 0.0)

    def test_block_shares_match_hash_shares_at_zero_delay(self):
        # 10,000-block runs, zero delay: shares within 1 percentage point.
        config = make_config(block_target=10_000, seed=4, runs=2)
        reports = [run_single(config, i) for i in range(config.runs)]
        for miner_id, share in enumerate(SKEWED_MINERS):
            mean = sum(r.miner_shares[miner_id] for r in reports) / len(reports)
            assert abs(mean - share) < 0.01

    def test_stake_proportional_selector(self):
        config = make_config(
            selector="stake",
            miners=(0.5, 0.5),
            stakes=(0.7, 0.3),
            n_n=2,
            block_target=5_000,
            seed=9,
        )
        report = run_single(config, 0)
        assert abs(report.miner_shares[0] - 0.7) < 0.02
        assert abs(report.miner_shares[1] - 0.3) < 0.02

    def test_round_robin_cycles_miners(self):
        config = make_config(selector="roundrobin", block_target=300, seed=2)
        report = run_single(config, 0)
        assert report.stale_rate == 0.0
        assert all(abs(s - 0.2) < 0.005 for s in report.miner_shares.values())

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: _schedule_round_robin arms the next slot on a tip the block "
        "just created has not reached, so every other slot is discarded as stale and, with "
        "an even number of miners, only every other miner creates; the fix moves the "
        "round-robin golden digests and the full-saturated benchmark hashes",
    )
    @pytest.mark.parametrize("b_delay", [0.0, 5.0])
    def test_round_robin_fills_every_slot(self, b_delay):
        config = make_config(
            selector="roundrobin", miners=(0.5, 0.5), n_n=2, b_interval=30.0, b_delay=b_delay,
            block_target=120,
        )
        report = run_single(config, 0)
        assert min(report.miner_shares.values()) > 0.0  # both miners create blocks
        assert report.sim_time_s == pytest.approx(120 * 30.0, rel=0.05)


class TestOnBlockCreate:
    def test_empty_pool_still_produces_block(self):
        engine, world, queue = make_engine(1, (1.0,))
        engine.start()
        time, _, _, miner_id, parent = queue.next_event()
        block = engine.on_block_create(miner_id, time, parent)
        assert block is not None
        assert block.tx_count == 0
        assert block.depth == 1
        assert world.blocks_created == 1

    def test_fee_sorted_greedy_packing(self):
        # The next arrival is ~1e6 s away, so only these three are pending.
        engine, world, queue = make_engine(1, (1.0,), full=True, capacity=0.8, tx_rate=1e-6)
        engine.workload.start(engine.miner_ids)
        for tid, fee in ((1, 5.0), (2, 3.0), (3, 9.0)):
            tx = Transaction(tid, 0.0, 0, 0.4, fee)
            engine.workload.on_tx_create(0, 0.0, tx)
        engine.start()
        time, _, _, miner_id, parent = queue.next_event()
        block = engine.on_block_create(miner_id, time, parent)
        assert [tx.fee for tx in block.transactions] == [9.0, 5.0]
        time, _, kind, miner_id, parent = queue.next_event()
        assert kind == EventKind.BLOCK_CREATE
        block = engine.on_block_create(miner_id, time, parent)
        assert [tx.fee for tx in block.transactions] == [3.0]  # fee-3 stayed pooled

    def test_stale_event_discarded_and_counted(self):
        engine, world, queue = make_engine(2, (0.5, 0.5), block_delay=0.0)
        engine.start()
        miner0 = world.nodes[0]
        armed_on = miner0.tip
        at = engine.schedule_next_creation(miner0, 0.0)
        append_block(engine, world, 0)  # tip advances depth 4 -> 5 analog
        assert armed_on.id != miner0.tip.id
        before = len(queue)
        result = engine.on_block_create(0, at, armed_on)
        assert result is None
        assert world.stale_creation_events == 1
        assert world.blocks_created == 0
        # no fresh event scheduled here: the adoption path already rearmed
        assert len(queue) == before

    def test_creation_timestamp_is_event_time(self):
        engine, world, queue = make_engine(1, (1.0,))
        engine.start()
        time, _, _, miner_id, parent = queue.next_event()
        block = engine.on_block_create(miner_id, time, parent)
        assert block.timestamp == time


class TestOnBlockReceive:
    def test_appended(self):
        engine, world, queue = make_engine(2, (1.0, 0.0))
        block = append_block(engine, world, 0)
        action = engine.on_block_receive(1, 2.0, block)
        assert action is ChainAction.APPENDED
        assert world.nodes[1].tip is block

    def test_replace_adopts_deeper_branch_exactly(self):
        engine, world, queue = make_engine(3, (0.4, 0.4, 0.2))
        node2 = world.nodes[2]
        # Branch A (miner 0): depths 1..3; node2 follows it.
        a1 = append_block(engine, world, 0)
        a2 = append_block(engine, world, 0)
        a3 = append_block(engine, world, 0)
        for b in (a1, a2, a3):
            engine.on_block_receive(2, b.timestamp + 0.1, b)
        assert node2.tip is a3
        # Branch B (miner 1): depths 1..5, never delivered to node2 until the head.
        b_head = None
        for _ in range(5):
            b_head = append_block(engine, world, 1, ts=(b_head.timestamp + 1 if b_head else 10.0))
        action = engine.on_block_receive(2, 20.0, b_head)
        assert action is ChainAction.REPLACED
        # Oracle: the full walk back through the registry.
        assert node2.chain == ancestry(world.registry, b_head)
        assert not (set(node2.chain) & {a1.id, a2.id, a3.id})
        assert node2.chain_pos == {bid: i for i, bid in enumerate(node2.chain)}

    def test_shorter_discarded_bitcoin(self):
        engine, world, _ = make_engine(2, (1.0, 0.0))
        fork_parent = world.genesis
        deep = None
        for _ in range(5):
            deep = append_block(engine, world, 0)
        node1 = world.nodes[1]
        engine.on_block_receive(1, 50.0, deep)
        shorter = Block(
            id=world.new_block_id(),
            depth=1,
            previous_id=fork_parent.id,
            timestamp=1.0,
            miner_id=0,
        )
        world.registry.add(shorter)
        action = engine.on_block_receive(1, 51.0, shorter)
        assert action is ChainAction.DISCARDED_SHORTER
        assert node1.tip is deep
        assert not node1.uncle_chain

    def test_shorter_stored_as_uncle_when_enabled(self):
        engine, world, _ = make_engine(2, (0.5, 0.5), uncles=True)
        deep = None
        for _ in range(3):
            deep = append_block(engine, world, 0)
        engine.on_block_receive(1, 30.0, deep)
        sibling = Block(
            id=world.new_block_id(), depth=3, previous_id=deep.previous_id,
            timestamp=3.5, miner_id=0,
        )
        world.registry.add(sibling)
        action = engine.on_block_receive(1, 31.0, sibling)
        assert action is ChainAction.STORED_AS_UNCLE
        assert sibling.id in world.nodes[1].uncle_chain

    def test_non_miner_keeps_no_uncle_candidates(self):
        # Only block creation reads or prunes candidates, so a node that
        # never creates a block stores none.
        engine, world, _ = make_engine(3, (0.5, 0.5, 0.0), uncles=True)
        deep = None
        for _ in range(3):
            deep = append_block(engine, world, 0)
        node2 = world.nodes[2]
        engine.on_block_receive(2, 30.0, deep)
        sibling = Block(
            id=world.new_block_id(), depth=3, previous_id=deep.previous_id,
            timestamp=3.5, miner_id=1, uncles=(deep.previous_id,),
        )
        world.registry.add(sibling)
        action = engine.on_block_receive(2, 31.0, sibling)
        assert action is ChainAction.DISCARDED_SHORTER
        assert not node2.uncle_chain
        assert not node2.included_uncles

    def test_ancestor_redelivery_not_stored_as_uncle(self):
        engine, world, _ = make_engine(2, (0.5, 0.5), uncles=True)
        first = append_block(engine, world, 0)
        second = append_block(engine, world, 0)
        node1 = world.nodes[1]
        # Deep head arrives first; the registry supplies the ancestor.
        engine.on_block_receive(1, 5.0, second)
        assert node1.tip is second
        action = engine.on_block_receive(1, 6.0, first)
        assert action is ChainAction.DISCARDED_SHORTER
        assert first.id not in node1.uncle_chain

    def test_equal_depth_first_seen_wins(self):
        engine, world, _ = make_engine(3, (0.5, 0.5, 0.0))
        left = append_block(engine, world, 0)
        right = append_block(engine, world, 1, ts=1.5)
        node2 = world.nodes[2]
        assert left.depth == right.depth == 1
        engine.on_block_receive(2, 2.0, left)
        action = engine.on_block_receive(2, 2.1, right)
        assert node2.tip is left
        assert action is ChainAction.DISCARDED_SHORTER

    def test_batched_delivery_in_node_order(self):
        # One entry reaches nodes 1 and 2; each adopts the block and re-arms
        # its race on it, node 1 first.
        engine, world, queue = make_engine(3, (0.4, 0.3, 0.3))
        block = append_block(engine, world, 0)
        engine.deliver_block((1, 2), 2.0, block)
        assert [world.nodes[n].tip for n in (1, 2)] == [block, block]
        entries = sorted((queue.next_event() for _ in range(len(queue))), key=lambda e: e[1])
        assert [(e[2], e[3], e[4]) for e in entries] == [
            (EventKind.BLOCK_CREATE, 1, block),
            (EventKind.BLOCK_CREATE, 2, block),
        ]

    def test_adoption_restarts_miner_race(self):
        engine, world, queue = make_engine(2, (0.5, 0.5))
        engine.start()
        pending = len(queue)
        block = append_block(engine, world, 0)
        engine.on_block_receive(1, 2.0, block)
        assert len(queue) == pending + 1  # node 1 rearmed on the new tip


class TestEligibleUncles:
    def _engine_with_uncles(self, uncle_depths, next_depth):
        engine, world, _ = make_engine(2, (1.0, 0.0), uncles=True)
        miner = world.nodes[0]
        while miner.tip.depth < next_depth - 1:
            append_block(engine, world, 0)
        for i, depth in enumerate(uncle_depths):
            uncle = Block(
                id=1000 + i, depth=depth, previous_id=None, timestamp=float(depth),
                miner_id=1,
            )
            world.registry.add(uncle)
            miner.uncle_chain[uncle.id] = None
        return engine, world, miner

    def test_depth_window_inclusive_boundary(self):
        # Uncle at depth 10, window 7: block depth 17 may reference it.
        engine, world, miner = self._engine_with_uncles([10], next_depth=17)
        assert engine.eligible_uncles(miner, 17) == [1000]

    def test_depth_window_exceeded(self):
        engine, world, miner = self._engine_with_uncles([10], next_depth=18)
        assert engine.eligible_uncles(miner, 18) == []
        assert 1000 not in miner.uncle_chain  # pruned once unreachable

    def test_max_two_oldest_first(self):
        engine, world, miner = self._engine_with_uncles([5, 3, 4], next_depth=8)
        chosen = engine.eligible_uncles(miner, 8)
        assert len(chosen) == 2
        depths = [world.registry[u].depth for u in chosen]
        assert depths == [3, 4]

    def test_globally_included_uncle_not_reused(self):
        engine, world, miner = self._engine_with_uncles([5], next_depth=8)
        world.included_uncles.add(1000)
        assert engine.eligible_uncles(miner, 8) == []

    def test_uncles_attached_and_removed_on_create(self):
        engine, world, queue = make_engine(2, (1.0, 0.0), uncles=True)
        miner = world.nodes[0]
        append_block(engine, world, 0)
        uncle = Block(id=500, depth=1, previous_id=world.genesis.id, timestamp=0.5, miner_id=1)
        world.registry.add(uncle)
        miner.uncle_chain[uncle.id] = None
        engine.start()
        time, _, _, miner_id, parent = queue.next_event()
        block = engine.on_block_create(miner_id, time, parent)
        assert block.uncles == (500,)
        assert 500 in world.included_uncles
        assert 500 not in miner.uncle_chain

    def test_receiving_block_removes_included_uncles(self):
        engine, world, _ = make_engine(2, (0.5, 0.5), uncles=True)
        node1 = world.nodes[1]
        uncle = Block(id=600, depth=1, previous_id=world.genesis.id, timestamp=0.4, miner_id=0)
        world.registry.add(uncle)
        node1.uncle_chain[uncle.id] = None
        block = append_block(engine, world, 0, uncles=(600,))
        engine.on_block_receive(1, 3.0, block)
        assert 600 not in node1.uncle_chain
        assert 600 in node1.included_uncles


class TestMainChain:
    def test_zero_delay_all_nodes_identical(self):
        sim = Simulation(make_config(sim_time=50_000.0), 0)
        sim.run()
        chains = [tuple(n.chain) for n in sim.world.nodes]
        assert len(set(chains)) == 1
        assert main_chain(sim.world) == list(chains[0])

    def test_tie_broken_by_lowest_node_id(self):
        engine, world, _ = make_engine(3, (0.4, 0.4, 0.2))
        b0 = append_block(engine, world, 0)
        b1 = append_block(engine, world, 1, ts=1.5)
        assert world.nodes[0].tip.depth == world.nodes[1].tip.depth
        assert main_chain(world) == world.nodes[0].chain

    def test_low_id_non_miner_decides_depth_tie(self):
        # Node 0 never mines.  Miner 2 mines X at 9.9 s and miner 1 mines Y
        # at 10 s; at 10.95 s node 0 and miner 2 hold X and miner 1 holds Y.
        # The depth tie goes to node 0, so X wins; without node 0 it is Y.
        sim = Simulation(make_config(n_n=3, miners=(0.0, 0.5, 0.5), b_delay=1.0), 0)
        genesis = sim.world.genesis
        sim.queue.schedule(9.9, EventKind.BLOCK_CREATE, 2, genesis)
        sim.queue.schedule(10.0, EventKind.BLOCK_CREATE, 1, genesis)
        run_loop(sim.queue, sim.handlers, sim.world, sim_time=10.95)
        x, y = sim.world.registry[1], sim.world.registry[2]
        assert (x.miner_id, y.miner_id, sim.world.blocks_created) == (2, 1, 2)
        assert [node.tip for node in sim.world.nodes] == [x, y, x]
        assert main_chain(sim.world) == [genesis.id, x.id]

    def test_single_miner_no_stale(self):
        report = run_single(make_config(miners=(1.0,), n_n=3, block_target=400, b_delay=5.0), 0)
        assert report.stale_rate == 0.0
        assert report.blocks_included == report.blocks_created == 400


class TestZeroDelayInvariant:
    def test_zero_delay_zero_stale_single_config(self):
        report = run_single(make_config(block_target=2_000, b_delay=0.0, seed=8), 0)
        assert report.stale_rate == 0.0
