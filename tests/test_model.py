import pytest

from chainsim.consensus import ChainAction
from chainsim.model import Block, World, make_genesis
from chainsim.runner import Simulation

from conftest import make_config


def blk(bid, depth, prev, miner=0, ts=None):
    return Block(
        id=bid,
        depth=depth,
        previous_id=prev,
        timestamp=float(depth) if ts is None else ts,
        miner_id=miner,
    )


def observer_sim():
    """An unstarted two-node world; node 1 never mines and only receives."""
    sim = Simulation(make_config(miners=(1.0,), n_n=2), 0)
    return sim, sim.world.nodes[1]


def adopt(blocks, head):
    """Register ``blocks``, deliver only ``head`` to a fresh node, return its chain.

    The registry is what lets the node fill in the ancestors it never received.
    """
    sim, observer = observer_sim()
    for b in blocks:
        sim.world.registry.add(b)
    sim.consensus.on_block_receive(1, 50.0, head)
    return observer.chain


class TestTip:
    def test_fresh_node_tip_is_genesis(self):
        world = World(2, hash_powers=(1.0,))
        assert world.nodes[0].tip.depth == 0
        assert world.nodes[1].tip is world.genesis

    def test_tip_tracks_chain_tail(self):
        # A node that adopts a three-block chain ends with the head as its tip.
        sim, observer = observer_sim()
        head = None
        for bid in (1, 2):
            head = blk(bid, bid, bid - 1)
            sim.world.registry.add(head)
        sim.consensus.on_block_receive(1, 5.0, head)
        assert observer.tip.id == observer.chain[-1] == 2

    def test_tip_depth_after_adopting_longer_chain(self):
        # Zero delay and a time horizon: the observer has adopted everything.
        # It sits below the miner, as a non-miner above every miner gets no blocks.
        config = make_config(sim_time=5_000.0, miners=(0.0, 1.0), n_n=2)
        sim = Simulation(config, 0)
        sim.run()
        observer, miner = sim.world.nodes
        assert miner.tip.depth >= 1
        assert observer.tip.depth == miner.tip.depth
        assert observer.chain == miner.chain


class TestRebuildChain:
    def test_head_genesis(self):
        sim, observer = observer_sim()
        action = sim.consensus.on_block_receive(1, 1.0, sim.world.genesis)
        assert action is ChainAction.DISCARDED_SHORTER
        assert observer.chain == [sim.world.genesis.id]

    def test_linear_chain(self):
        blocks = [blk(i, i, i - 1) for i in range(1, 5)]
        path = adopt(blocks, blocks[-1])
        assert path == [0, 1, 2, 3, 4]
        assert len(path) == blocks[-1].depth + 1

    def test_forked_registry_follows_single_branch(self):
        # Hand-built 6-block fork: two children of genesis, one branch deeper.
        g = make_genesis()
        a1 = blk(1, 1, g.id)
        a2 = blk(2, 2, a1.id)
        b1 = blk(3, 1, g.id)
        b2 = blk(4, 2, b1.id)
        b3 = blk(5, 3, b2.id)
        blocks = (a1, a2, b1, b2, b3)

        # Oracle: enumerate all root-to-node paths by brute force.
        children = {}
        for b in blocks:
            children.setdefault(b.previous_id, []).append(b)

        def paths(node, prefix):
            prefix = prefix + [node.id]
            yield node.id, list(prefix)
            for child in children.get(node.id, []):
                yield from paths(child, prefix)

        expected = dict(paths(g, []))
        for head in blocks:
            assert adopt(blocks, head) == expected[head.id]
        assert set(adopt(blocks, b3)) & {a1.id, a2.id} == set()

    def test_broken_ancestry_is_fatal(self):
        orphan = blk(9, 3, 8)  # parent 8 never registered
        with pytest.raises(KeyError):
            adopt([orphan], orphan)


class TestWorld:
    def test_nodes_get_weights_and_genesis(self):
        world = World(4, hash_powers=(0.7, 0.3), stakes=(1.0, 3.0))
        assert [n.hash_power for n in world.nodes] == [0.7, 0.3, 0.0, 0.0]
        assert [n.stake for n in world.nodes] == [1.0, 3.0, 0.0, 0.0]
        assert all(n.balance == 0.0 for n in world.nodes)
        assert all(n.tip is world.genesis for n in world.nodes)

    def test_ids_increment(self):
        world = World(1, hash_powers=(1.0,))
        assert world.new_block_id() == 1
        assert world.new_block_id() == 2
        assert world.new_tx_id() == 1

    def test_requires_a_node(self):
        with pytest.raises(ValueError):
            World(0)

    def test_every_chain_block_is_registered_after_a_run(self):
        sim = Simulation(make_config(b_delay=3.0, block_target=250), 0)
        sim.run()
        for node in sim.world.nodes:
            for bid in node.chain:
                assert bid in sim.world.registry
