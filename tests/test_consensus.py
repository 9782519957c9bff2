import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import model
from chainsim.consensus import ConsensusEngine, main_chain
from chainsim.engine import EventKind, EventQueue, run_loop
from chainsim.model import World, creation_weights
from chainsim.network import Network
from chainsim.runner import Simulation, run_single
from chainsim.streams import Streams
from chainsim.workload import TxWorkload

from conftest import SKEWED_MINERS, ancestry, block_txs, chain_of, file_one, make_config, put_block


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
    world = World(creation_weights(config))
    queue = EventQueue()
    streams = Streams(config, seed)
    network = Network(queue, streams, config, len(world.nodes))
    workload = TxWorkload(world, streams, config)
    return ConsensusEngine(world, queue, streams, config, network, workload), world, queue


def register(world, *, depth, previous_id, timestamp, miner_id, uncles=()):
    """Add a block with the next free id to the block columns and return its id;
    ``previous_id`` None gives it no parent."""
    parent = -1 if previous_id is None else previous_id
    return put_block(world, depth, parent, timestamp, miner_id, uncles=uncles)


def append_block(engine, world, miner_id, *, uncles=(), ts=None):
    """Force-create a block on the miner's current tip (helper for receive tests).

    Its ``uncles`` join ``World.included_uncles``, as on_block_create does.
    """
    miner = world.nodes[miner_id]
    parent = miner.tip
    block = register(
        world,
        depth=world.depth[parent] + 1,
        previous_id=parent,
        timestamp=world.timestamp[parent] + 1.0 if ts is None else ts,
        miner_id=miner_id,
        uncles=tuple(uncles),
    )
    world.included_uncles.update(uncles)
    miner.tip = block
    return block


class TestScheduleNextCreation:
    def test_single_miner_exponential_mean(self):
        # A miner has one armed creation: each re-arm replaces the last.
        engine, world, queue = make_engine(1, (1.0,), block_interval=600.0)
        miner = world.nodes[0]
        n = 10_000
        total = 0.0
        for _ in range(n):
            at = engine.schedule_next_creation(miner, 0.0)
            total += at
            assert len(queue) == 1
        assert abs(total / n - 600.0) < 18.0  # 3 sigma on the exponential mean
        time, seq, kind, target, payload = queue.next_event()
        assert (time, seq, kind, target, payload) == (at, n - 1, EventKind.BLOCK_CREATE, 0, miner.tip)
        assert queue.next_event() is None

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
        assert payload == world.nodes[0].tip
        assert (time, kind, target) == (at, EventKind.BLOCK_CREATE, 0)

    def test_weights_normalised_by_left_to_right_sum(self, monkeypatch):
        # Adding left to right, as sum() does before Python 3.12, gives
        # 0.9999999999999999; compensated summation, as 3.12's sum() does,
        # gives 1.0.  math.fsum stands in for the latter.
        powers = (0.7, 0.2, 0.1)
        assert (0.7 + 0.2) + 0.1 != math.fsum(powers)
        monkeypatch.setattr(model, "sum", math.fsum, raising=False)
        _, world, _ = make_engine(n_nodes=3, hash_powers=powers)
        assert world.weights == [w / ((0.7 + 0.2) + 0.1) for w in powers]

    def test_zero_weight_miner_rejected(self):
        engine, world, _ = make_engine(2, (0.0, 1.0))
        with pytest.raises(ValueError):
            engine.schedule_next_creation(world.nodes[0], 0.0)

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
        assert block == 1 == len(world.depth) - 1
        assert world.tx_count[block] == 0
        assert world.depth[block] == 1

    def test_fee_sorted_greedy_packing(self):
        # The next arrival is ~1e6 s away, so only these three are pending.
        engine, world, queue = make_engine(1, (1.0,), full=True, capacity=0.8, tx_rate=1e-6)
        engine.workload.start()
        for tid, fee in ((1, 5.0), (2, 3.0), (3, 9.0)):
            file_one(engine.workload, 0, (tid, 0.0, 0.4, fee))
        engine.start()
        time, _, _, miner_id, parent = queue.next_event()
        block = engine.on_block_create(miner_id, time, parent)
        assert [fee for _, _, _, fee in block_txs(engine.workload, block)] == [9.0, 5.0]
        time, _, kind, miner_id, parent = queue.next_event()
        assert kind == EventKind.BLOCK_CREATE
        block = engine.on_block_create(miner_id, time, parent)
        assert [fee for _, _, _, fee in block_txs(engine.workload, block)] == [3.0]  # fee-3 stayed pooled

    def test_stale_event_discarded(self):
        engine, world, queue = make_engine(2, (0.5, 0.5), block_delay=0.0)
        engine.start()
        miner0 = world.nodes[0]
        armed_on = miner0.tip
        at = engine.schedule_next_creation(miner0, 0.0)
        append_block(engine, world, 0)  # tip advances depth 4 -> 5 analog
        assert armed_on != miner0.tip
        before = len(queue)
        registered = len(world.depth)
        result = engine.on_block_create(0, at, armed_on)
        assert result is None
        assert len(world.depth) == registered
        # no fresh event scheduled here: the adoption path already rearmed
        assert len(queue) == before

    def test_creation_timestamp_is_event_time(self):
        engine, world, queue = make_engine(1, (1.0,))
        engine.start()
        time, _, _, miner_id, parent = queue.next_event()
        block = engine.on_block_create(miner_id, time, parent)
        assert world.timestamp[block] == time


class CountingColumn(array):
    """A block column that counts the entries read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def armed(queue, node_id):
    """``node_id``'s armed creation as ``(time, seq, tip)``, or None."""
    entry = queue._armed.get(node_id)
    return None if entry is None else (entry[0], entry[1], entry[4])


def receive(engine, node_id, now, block):
    """Deliver ``block`` to ``node_id`` alone."""
    engine.deliver_block((node_id,), now, block)


class TestOnBlockReceive:
    def test_appended(self):
        engine, world, queue = make_engine(2, (0.5, 0.5))
        block = append_block(engine, world, 0)
        receive(engine, 1, 2.0, block)
        assert world.nodes[1].tip == block
        assert chain_of(world, world.nodes[1]) == [0, block]
        time, _, tip = armed(queue, 1)
        assert tip == block and time > 2.0  # the miner re-armed on the block it appended

    def test_replace_adopts_deeper_branch_exactly(self):
        engine, world, queue = make_engine(3, (0.4, 0.4, 0.2))
        node2 = world.nodes[2]
        # Branch A (miner 0): depths 1..3; node2 follows it.
        a1 = append_block(engine, world, 0)
        a2 = append_block(engine, world, 0)
        a3 = append_block(engine, world, 0)
        for b in (a1, a2, a3):
            receive(engine, 2, world.timestamp[b] + 0.1, b)
        assert node2.tip == a3
        # Branch B (miner 1): depths 1..5, never delivered to node2 until the head.
        branch_b = []
        for _ in range(5):
            ts = world.timestamp[branch_b[-1]] + 1 if branch_b else 10.0
            branch_b.append(append_block(engine, world, 1, ts=ts))
        b_head = branch_b[-1]
        before = armed(queue, 2)
        receive(engine, 2, 20.0, b_head)
        assert node2.tip == b_head
        time, seq, tip = armed(queue, 2)
        assert tip == b_head and time > 20.0 and seq > before[1]  # re-armed on the new head
        # Oracles: the full walk back through the parent column, and branch B as built.
        assert chain_of(world, node2) == ancestry(world, b_head) == [0, *branch_b]
        assert not (set(chain_of(world, node2)) & {a1, a2, a3})
        assert [world.depth[bid] for bid in chain_of(world, node2)] == list(range(6))

    def test_shorter_discarded_bitcoin(self):
        engine, world, queue = make_engine(2, (0.5, 0.5))
        fork_parent = 0
        deep = None
        for _ in range(5):
            deep = append_block(engine, world, 0)
        node1 = world.nodes[1]
        receive(engine, 1, 50.0, deep)
        chain, slot = chain_of(world, node1), armed(queue, 1)
        shorter = register(world, depth=1, previous_id=fork_parent, timestamp=1.0, miner_id=0)
        receive(engine, 1, 51.0, shorter)
        assert node1.tip == deep
        assert chain_of(world, node1) == chain
        assert armed(queue, 1) == slot  # no re-arm
        assert not node1.uncle_chain

    def test_shorter_stored_as_uncle_when_enabled(self):
        engine, world, queue = make_engine(2, (0.5, 0.5), uncles=True)
        deep = None
        for _ in range(3):
            deep = append_block(engine, world, 0)
        receive(engine, 1, 30.0, deep)
        chain, slot = chain_of(world, world.nodes[1]), armed(queue, 1)
        sibling = register(
            world, depth=3, previous_id=world.parent[deep], timestamp=3.5, miner_id=0
        )
        receive(engine, 1, 31.0, sibling)
        assert list(world.nodes[1].uncle_chain) == [sibling]
        assert world.nodes[1].tip == deep and chain_of(world, world.nodes[1]) == chain
        assert armed(queue, 1) == slot  # no re-arm

    def test_non_miner_keeps_no_uncle_candidates(self):
        # Only block creation reads or prunes candidates, so a node that
        # never creates a block stores none.
        engine, world, queue = make_engine(3, (0.0, 0.5, 0.5), uncles=True)
        deep = None
        for _ in range(3):
            deep = append_block(engine, world, 1)
        node0 = world.nodes[0]
        receive(engine, 0, 30.0, deep)
        chain = chain_of(world, node0)
        sibling = register(
            world, depth=3, previous_id=world.parent[deep],
            timestamp=3.5, miner_id=2, uncles=(world.parent[deep],),
        )
        receive(engine, 0, 31.0, sibling)
        assert node0.tip == deep and chain_of(world, node0) == chain
        assert not node0.uncle_chain
        assert armed(queue, 0) is None  # a node that never mines is never armed

    def test_block_below_the_uncle_window_is_not_kept(self):
        # A block an uncle window or more below the tip would be pruned
        # before any creation read it, so it is not kept; whether one inside
        # the window is on the chain is a walk of at most G_uncle + 1 steps.
        engine, world, queue = make_engine(2, (0.5, 0.5), uncles=True)
        window = engine.uncle_window
        deep = None
        for _ in range(window + 3):
            deep = append_block(engine, world, 0)
        node1 = world.nodes[1]
        receive(engine, 1, 50.0, deep)
        chain = chain_of(world, node1)
        world.parent = parents = CountingColumn("q", world.parent)
        top = world.depth[deep]
        for depth, kept in ((1, False), (top - window, False), (top - window + 1, True)):
            sibling = register(world, depth=depth, previous_id=chain[depth - 1], timestamp=0.5, miner_id=0)
            parents.reads = 0
            receive(engine, 1, 51.0, sibling)
            assert (sibling in node1.uncle_chain) is kept
            assert parents.reads <= window + 1
        assert node1.tip == deep and list(node1.uncle_chain) == [sibling]

    def test_ancestor_redelivery_not_stored_as_uncle(self):
        engine, world, queue = make_engine(2, (0.5, 0.5), uncles=True)
        first = append_block(engine, world, 0)
        second = append_block(engine, world, 0)
        node1 = world.nodes[1]
        # Deep head arrives first; the block columns supply the ancestor.
        receive(engine, 1, 5.0, second)
        assert node1.tip == second
        slot = armed(queue, 1)
        receive(engine, 1, 6.0, first)
        assert node1.tip == second and chain_of(world, node1) == [0, first, second]
        assert armed(queue, 1) == slot  # no re-arm
        assert first not in node1.uncle_chain

    def test_equal_depth_first_seen_wins(self):
        engine, world, queue = make_engine(3, (0.5, 0.25, 0.25))
        left = append_block(engine, world, 0)
        right = append_block(engine, world, 1, ts=1.5)
        node2 = world.nodes[2]
        assert world.depth[left] == world.depth[right] == 1
        receive(engine, 2, 2.0, left)
        slot = armed(queue, 2)
        receive(engine, 2, 2.1, right)
        assert node2.tip == left and chain_of(world, node2) == [0, left]
        assert armed(queue, 2) == slot  # no re-arm
        assert not node2.uncle_chain

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
        # Adopting a block re-arms node 1 on it: the new creation replaces
        # the one armed on genesis, so each miner still has exactly one.
        engine, world, queue = make_engine(2, (0.5, 0.5))
        engine.start()
        block = append_block(engine, world, 0)
        receive(engine, 1, 2.0, block)
        entries = [queue.next_event() for _ in range(len(queue))]
        assert queue.next_event() is None
        armed = {target: (time, seq, payload) for time, seq, _, target, payload in entries}
        assert len(entries) == len(armed) == 2
        assert armed[0][1:] == (0, 0)  # miner 0's creation from start(), on genesis
        assert armed[1][1:] == (2, block) and armed[1][0] > 2.0  # seq 1 was replaced

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(b_delay=3.0, uncles_enabled=True),
            dict(b_delay=3.0, delay_mode="exponential", n_n=7),
            dict(selector="stake", stakes=(0.1, 0.2, 0.3, 0.2, 0.2), b_delay=1.0),
        ],
        ids=["constant", "exponential", "stake"],
    )
    def test_each_dispatched_creation_makes_a_block(self, overrides):
        # Forks and reorganisations re-arm miners often, yet no creation a
        # tip change superseded is ever dispatched.
        config = make_config(b_interval=10.0, block_target=400, **overrides)
        sim = Simulation(config, 0)
        create = sim.handlers[EventKind.BLOCK_CREATE]
        made = []
        sim.handlers[EventKind.BLOCK_CREATE] = lambda *event: made.append(create(*event))
        report = sim.run()
        assert report.stale_rate > 0.0  # the race forked
        assert len(made) == report.blocks_created == 400
        assert None not in made

    def test_round_robin_still_skips_a_slot_on_a_moved_tip(self):
        # The pinned defect (test_round_robin_fills_every_slot): with two
        # miners, every other slot is armed on a tip its miner has left and
        # is dispatched only to be skipped.
        config = make_config(
            selector="roundrobin", miners=(0.5, 0.5), n_n=2, b_interval=30.0, b_delay=0.0,
            block_target=120,
        )
        sim = Simulation(config, 0)
        create = sim.handlers[EventKind.BLOCK_CREATE]
        made = []
        sim.handlers[EventKind.BLOCK_CREATE] = lambda *event: made.append(create(*event))
        sim.run()
        assert made[1::2] == [None] * 119 and None not in made[::2]


def reference_receive(engine, chains, node_id, now, block):
    """The first-seen longest-chain rule at one node, kept apart from
    ``deliver_block`` as the reference it is checked against.  ``chains``
    holds each node's chain as its own list of block ids indexed by depth.
    Drop a block already on the chain; append one that extends the tip, or
    adopt the deeper branch it heads, walking back to the chain through the
    parent column; else keep it as an uncle candidate if the node mines, uncles
    are on and no block has referenced it.  A miner flags the transactions
    of each block it adopts, drops each as a candidate with the uncles it
    references, and re-arms its race on the new tip."""
    world = engine.world
    depth, parent = world.depth, world.parent
    node, chain, mines = world.nodes[node_id], chains[node_id], world.weights[node_id] > 0
    tip = node.tip
    if depth[block] <= depth[tip] and chain[depth[block]] == block:
        return
    branch = [block]
    if parent[block] != tip:
        if depth[block] <= depth[tip]:
            if engine.uncles_enabled and mines and block not in world.included_uncles:
                node.uncle_chain[block] = None
            return
        ancestor = parent[block]
        while depth[ancestor] >= len(chain) or chain[depth[ancestor]] != ancestor:
            branch.append(ancestor)
            ancestor = parent[ancestor]
    del chain[depth[branch[-1]] :]
    for adopted in reversed(branch):
        chain.append(adopted)
        if mines:
            if adopted in world.transactions:
                engine.workload.adopt(node_id, adopted)
            if engine.uncles_enabled:
                for gone in (adopted, *world.uncles.get(adopted, ())):
                    node.uncle_chain.pop(gone, None)
    node.tip = block
    if mines and not engine.round_robin:
        engine.schedule_next_creation(node, now)


def run_traced(sim, chains=None):
    """Run ``sim`` and return a snapshot of its consensus state after each event:
    each node's chain, tip and uncle candidates, the referenced uncles, the
    adopted flags, each armed creation as ``(time, seq, tip id)``, and the generator's state.

    Chains are read from the tips; ``chains``, if given, must equal them
    after every event.  No candidate may be on its node's chain.  Candidates
    an uncle window or more below the tip are left out: no creation reads
    them before they are pruned, and ``deliver_block`` does not keep them."""
    world, queue, workload = sim.world, sim.queue, sim.workload
    window = sim.consensus.uncle_window
    snapshots = []

    def snapshot():
        derived = [chain_of(world, node) for node in world.nodes]
        assert chains is None or chains == derived
        assert not any(set(node.uncle_chain) & set(chain) for node, chain in zip(world.nodes, derived))
        snapshots.append((
            derived,
            [node.tip for node in world.nodes],
            [[u for u in node.uncle_chain if world.depth[u] + window > world.depth[node.tip]] for node in world.nodes],
            sorted(world.included_uncles),
            workload._adopted.tolist(),
            {m: (time, seq, tip) for m, (time, seq, _, _, tip) in queue._armed.items()},
            sim.streams.rng.bit_generator.state,
        ))

    for kind, handler in list(sim.handlers.items()):
        sim.handlers[kind] = lambda *event, handler=handler: (handler(*event), snapshot())
    sim.run()
    return snapshots


class TestDeliverBlockMatchesThePerNodeRule:
    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=2, max_size=5).filter(any),
        extra_nodes=st.integers(0, 2),
        uncles=st.booleans(),
        full=st.booleans(),
        exponential=st.booleans(),
        b_delay=st.sampled_from([0.0, 3.0, 8.0, 20.0]),
        seed=st.integers(0, 2**16),
    )
    def test_same_state_after_every_event(self, weights, extra_nodes, uncles, full, exponential, b_delay, seed):
        # Delays near the block interval fork the race often, so nodes reorganize, keep
        # uncles and receive ancestors late; a zero weight below a miner is a built non-miner.
        total = sum(weights)
        config = make_config(
            miners=tuple(w / total for w in weights), n_n=len(weights) + extra_nodes,
            b_interval=10.0, b_delay=b_delay, delay_mode="exponential" if exponential else "constant",
            uncles_enabled=uncles, has_trans=full, t_technique="full" if full else "light",
            t_n=0.5, t_delay=2.0, b_size=0.002, t_size="exp:0.001", t_fee="exp:1.0",
            block_target=40, seed=seed,
        )
        one_pass = Simulation(config, 0)
        per_node = Simulation(config, 0)
        chains = [[0] for _ in per_node.world.nodes]  # the reference's own chain lists
        create = per_node.handlers[EventKind.BLOCK_CREATE]

        def create_and_extend(miner_id, now, parent):
            if (block := create(miner_id, now, parent)) is not None:
                chains[miner_id].append(block)

        per_node.handlers[EventKind.BLOCK_CREATE] = create_and_extend
        per_node.handlers[EventKind.BLOCK_RECEIVE] = lambda node_ids, now, block: [
            reference_receive(per_node.consensus, chains, node_id, now, block) for node_id in node_ids
        ]
        assert run_traced(one_pass) == run_traced(per_node, chains)


class TestEligibleUncles:
    def _engine_with_uncles(self, uncle_depths, next_depth):
        engine, world, _ = make_engine(2, (1.0, 0.0), uncles=True)
        miner = world.nodes[0]
        while world.depth[miner.tip] < next_depth - 1:
            append_block(engine, world, 0)
        uncle_ids = []
        for depth in uncle_depths:
            uncle = register(
                world, depth=depth, previous_id=None, timestamp=float(depth), miner_id=1
            )
            miner.uncle_chain[uncle] = None
            uncle_ids.append(uncle)
        return engine, world, miner, uncle_ids

    def test_depth_window_inclusive_boundary(self):
        # Uncle at depth 10, window 7: block depth 17 may reference it.
        engine, world, miner, uncle_ids = self._engine_with_uncles([10], next_depth=17)
        assert engine.eligible_uncles(miner, 17) == uncle_ids

    def test_depth_window_exceeded(self):
        engine, world, miner, (uncle_id,) = self._engine_with_uncles([10], next_depth=18)
        assert engine.eligible_uncles(miner, 18) == []
        assert uncle_id not in miner.uncle_chain  # pruned once unreachable

    def test_max_two_oldest_first(self):
        engine, world, miner, _ = self._engine_with_uncles([5, 3, 4], next_depth=8)
        chosen = engine.eligible_uncles(miner, 8)
        assert len(chosen) == 2
        depths = [world.depth[u] for u in chosen]
        assert depths == [3, 4]

    def test_globally_included_uncle_not_reused(self):
        engine, world, miner, (uncle_id,) = self._engine_with_uncles([5], next_depth=8)
        world.included_uncles.add(uncle_id)
        assert engine.eligible_uncles(miner, 8) == []

    def test_uncles_attached_and_removed_on_create(self):
        engine, world, queue = make_engine(2, (1.0, 0.0), uncles=True)
        miner = world.nodes[0]
        append_block(engine, world, 0)
        uncle = register(world, depth=1, previous_id=0, timestamp=0.5, miner_id=1)
        miner.uncle_chain[uncle] = None
        engine.start()
        time, _, _, miner_id, parent = queue.next_event()
        block = engine.on_block_create(miner_id, time, parent)
        assert world.uncles[block] == (uncle,)
        assert uncle in world.included_uncles
        assert uncle not in miner.uncle_chain

    def test_receiving_block_removes_included_uncles(self):
        engine, world, queue = make_engine(2, (0.5, 0.5), uncles=True)
        node1 = world.nodes[1]
        uncle = register(world, depth=1, previous_id=0, timestamp=0.4, miner_id=0)
        node1.uncle_chain[uncle] = None
        block = append_block(engine, world, 0, uncles=(uncle,))
        receive(engine, 1, 3.0, block)
        assert uncle not in node1.uncle_chain
        assert uncle in world.included_uncles
        # A referenced uncle delivered again is not a candidate any more.
        slot = armed(queue, 1)
        receive(engine, 1, 4.0, uncle)
        assert node1.tip == block and chain_of(world, node1) == [0, block]
        assert armed(queue, 1) == slot  # no re-arm
        assert uncle not in node1.uncle_chain


class TestMainChain:
    def test_zero_delay_all_nodes_identical(self):
        sim = Simulation(make_config(sim_time=50_000.0), 0)
        sim.run()
        chains = [tuple(chain_of(sim.world, n)) for n in sim.world.nodes]
        assert len(set(chains)) == 1
        assert main_chain(sim.world).tolist() == list(chains[0])

    def test_tie_broken_by_lowest_node_id(self):
        engine, world, _ = make_engine(3, (0.4, 0.4, 0.2))
        b0 = append_block(engine, world, 0)
        b1 = append_block(engine, world, 1, ts=1.5)
        assert world.depth[world.nodes[0].tip] == world.depth[world.nodes[1].tip]
        assert main_chain(world).tolist() == chain_of(world, world.nodes[0])

    def test_low_id_non_miner_decides_depth_tie(self):
        # Node 0 never mines.  Miner 2 mines X at 9.9 s and miner 1 mines Y
        # at 10 s; at 10.95 s node 0 and miner 2 hold X and miner 1 holds Y.
        # The depth tie goes to node 0, so X wins; without node 0 it is Y.
        sim = Simulation(make_config(n_n=3, miners=(0.0, 0.5, 0.5), b_delay=1.0), 0)
        genesis = 0
        sim.queue.schedule(9.9, EventKind.BLOCK_CREATE, 2, genesis)
        sim.queue.schedule(10.0, EventKind.BLOCK_CREATE, 1, genesis)
        run_loop(sim.queue, sim.handlers, sim.world, sim_time=10.95)
        x, y = 1, 2
        assert (sim.world.miner[x], sim.world.miner[y], len(sim.world.depth)) == (2, 1, 3)
        assert [node.tip for node in sim.world.nodes] == [x, y, x]
        assert main_chain(sim.world).tolist() == [genesis, x]

    def test_single_miner_no_stale(self):
        report = run_single(make_config(miners=(1.0,), n_n=3, block_target=400, b_delay=5.0), 0)
        assert report.stale_rate == 0.0
        assert report.blocks_included == report.blocks_created == 400


class TestZeroDelayInvariant:
    def test_zero_delay_zero_stale_single_config(self):
        report = run_single(make_config(block_target=2_000, b_delay=0.0, seed=8), 0)
        assert report.stale_rate == 0.0
