import pytest

from chainsim.model import Block, World
from chainsim.runner import Simulation

from conftest import genesis, make_config, record_filing


def blk(bid, depth, prev, miner=0, ts=None):
    return Block(
        id=bid,
        depth=depth,
        previous_id=prev,
        timestamp=float(depth) if ts is None else ts,
        miner_id=miner,
    )


def observer_sim():
    """An unstarted two-node world; node 0 never mines and only receives."""
    sim = Simulation(make_config(miners=(0.0, 1.0), n_n=2), 0)
    return sim, sim.world.nodes[0]


def adopt(blocks, head):
    """Register ``blocks``, deliver only ``head`` to a fresh node, return its chain.

    The registry is what lets the node fill in the ancestors it never received.
    """
    sim, observer = observer_sim()
    for b in blocks:
        assert b.id == len(sim.world.registry)  # ids index the registry
        sim.world.registry.append(b)
    sim.consensus.deliver_block((0,), 50.0, head)
    return observer.chain


class TestTip:
    def test_fresh_node_tip_is_genesis(self):
        world = World([0.5, 0.5])
        assert world.nodes[0].tip.depth == 0
        assert world.nodes[1].tip is world.registry[0]

    def test_tip_tracks_chain_tail(self):
        # A node that adopts a three-block chain ends with the head as its tip.
        sim, observer = observer_sim()
        head = None
        for bid in (1, 2):
            head = blk(bid, bid, bid - 1)
            sim.world.registry.append(head)
        sim.consensus.deliver_block((0,), 5.0, head)
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
        sim.consensus.deliver_block((0,), 1.0, sim.world.registry[0])
        assert observer.chain == [sim.world.registry[0].id]
        assert observer.tip is sim.world.registry[0] and not observer.uncle_chain
        assert len(sim.queue) == 0  # no re-arm

    def test_linear_chain(self):
        blocks = [blk(i, i, i - 1) for i in range(1, 5)]
        path = adopt(blocks, blocks[-1])
        assert path == [0, 1, 2, 3, 4]
        assert len(path) == blocks[-1].depth + 1

    def test_forked_registry_follows_single_branch(self):
        # Hand-built 6-block fork: two children of genesis, one branch deeper.
        g = genesis()
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
            assert all(n.tip is sim.world.registry[0] for n in sim.world.nodes)

    def test_ids_increment(self):
        # Block ids index the registry; the first transaction's id is 1.
        config = make_config(has_trans=True, t_technique="full", t_n=0.01, block_target=20)
        sim = Simulation(config, 0)
        sim.run()
        assert [b.id for b in sim.world.registry] == list(range(21))
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
            for depth, bid in enumerate(node.chain):
                block = sim.world.registry[bid]
                assert (block.id, block.depth) == (bid, depth)
