import pytest

from chainsim.model import World
from chainsim.runner import Simulation

from conftest import chain_of, make_config, put_block, record_filing


def blk(bid, depth, prev, miner=0, ts=None):
    """Block ``bid``'s row, as ``(id, depth, parent, timestamp, miner)``."""
    return (bid, depth, prev, float(depth) if ts is None else ts, miner)


def observer_sim():
    """An unstarted two-node world; node 0 never mines and only receives."""
    sim = Simulation(make_config(miners=(0.0, 1.0), n_n=2), 0)
    return sim, sim.world.nodes[0]


def adopt(blocks, head):
    """Add the rows ``blocks``, deliver only ``head`` to a fresh node, return its chain.

    The block columns are what let the node fill in the ancestors it never
    received; a broken link fails as the chain is walked.
    """
    sim, observer = observer_sim()
    for bid, *row in blocks:
        assert put_block(sim.world, *row) == bid  # ids index the columns
    sim.consensus.deliver_block((0,), 50.0, head[0])
    return chain_of(sim.world, observer)


class TestTip:
    def test_fresh_node_tip_is_genesis(self):
        world = World([0.5, 0.5])
        assert world.depth[world.nodes[0].tip] == 0
        assert world.nodes[1].tip == 0
        assert (world.parent[0], world.miner[0], world.timestamp[0]) == (-1, -1, 0.0)

    def test_tip_tracks_chain_tail(self):
        # A node that adopts a three-block chain ends with the head as its tip.
        sim, observer = observer_sim()
        head = None
        for bid in (1, 2):
            head = put_block(sim.world, *blk(bid, bid, bid - 1)[1:])
        sim.consensus.deliver_block((0,), 5.0, head)
        assert observer.tip == chain_of(sim.world, observer)[-1] == 2

    def test_tip_depth_after_adopting_longer_chain(self):
        # Zero delay and a time horizon: the observer has adopted everything.
        # It sits below the miner, as a non-miner above every miner gets no blocks.
        config = make_config(sim_time=5_000.0, miners=(0.0, 1.0), n_n=2)
        sim = Simulation(config, 0)
        sim.run()
        observer, miner = sim.world.nodes
        assert sim.world.depth[miner.tip] >= 1
        assert sim.world.depth[observer.tip] == sim.world.depth[miner.tip]
        assert chain_of(sim.world, observer) == chain_of(sim.world, miner)


class TestRebuildChain:
    def test_head_genesis(self):
        sim, observer = observer_sim()
        sim.consensus.deliver_block((0,), 1.0, 0)
        assert chain_of(sim.world, observer) == [0]
        assert observer.tip == 0 and not observer.uncle_chain
        assert len(sim.queue) == 0  # no re-arm

    def test_linear_chain(self):
        blocks = [blk(i, i, i - 1) for i in range(1, 5)]
        path = adopt(blocks, blocks[-1])
        assert path == [0, 1, 2, 3, 4]
        assert len(path) == blocks[-1][1] + 1

    def test_forked_registry_follows_single_branch(self):
        # Hand-built 6-block fork: two children of genesis, one branch deeper.
        a1 = blk(1, 1, 0)
        a2 = blk(2, 2, 1)
        b1 = blk(3, 1, 0)
        b2 = blk(4, 2, 3)
        b3 = blk(5, 3, 4)
        blocks = (a1, a2, b1, b2, b3)

        # Oracle: enumerate all root-to-node paths by brute force.
        children = {}
        for bid, _, parent, _, _ in blocks:
            children.setdefault(parent, []).append(bid)

        def paths(node, prefix):
            prefix = prefix + [node]
            yield node, list(prefix)
            for child in children.get(node, []):
                yield from paths(child, prefix)

        expected = dict(paths(0, []))
        for head in blocks:
            assert adopt(blocks, head) == expected[head[0]]
        assert set(adopt(blocks, b3)) & {1, 2} == set()

    def test_broken_ancestry_is_fatal(self):
        orphan = blk(1, 3, 8)  # parent 8 never registered
        with pytest.raises(LookupError):
            adopt([orphan], orphan)


class TestWorld:
    def test_nodes_get_weights_and_genesis(self):
        # Weights follow the miners list, or the stakes under selector = stake,
        # and no node past the last miner is built.
        cases = (("pow", [0.7, 0.3]), ("stake", [0.25, 0.75]))
        for selector, weights in cases:
            config = make_config(miners=(0.7, 0.3), stakes=(1.0, 3.0), n_n=4, selector=selector)
            sim = Simulation(config, 0)
            assert sim.world.weights == weights
            assert all(n.tip == 0 for n in sim.world.nodes)

    def test_ids_increment(self):
        # Block ids index the block columns; the first transaction's id is 1.
        config = make_config(has_trans=True, t_technique="full", t_n=0.01, block_target=20)
        sim = Simulation(config, 0)
        sim.run()
        world = sim.world
        columns = (world.depth, world.parent, world.timestamp, world.miner, world.tx_count, world.tx_fee_total)
        assert {len(column) for column in columns} == {21}
        assert all(0 <= world.parent[b] < b for b in range(1, 21))  # a parent is made first
        fresh = Simulation(config, 0)
        filed = record_filing(fresh)
        fresh.run()
        ids = [tx[0] for _, tx, _ in filed]  # the tuple's id
        assert ids[:1] == [1] and ids == list(range(1, len(ids) + 1))

    def test_requires_a_node(self):
        with pytest.raises(ValueError):
            World([0.0, 0.0])

    def test_every_chain_block_is_registered_after_a_run(self):
        sim = Simulation(make_config(b_delay=3.0, block_target=250), 0)
        sim.run()
        for node in sim.world.nodes:
            for depth, bid in enumerate(chain_of(sim.world, node)):
                assert sim.world.depth[bid] == depth
