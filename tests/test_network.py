import math

import pytest

from chainsim.config import ConfigError, parse_config_text
from chainsim.engine import EventKind, EventQueue, RandomSource
from chainsim.model import Transaction, make_genesis
from chainsim.network import Network
from chainsim.runner import Simulation

from conftest import make_config


def make_network(n_nodes, block_delay=2.0, tx_delay=5.0, mode="constant", seed=1):
    queue = EventQueue()
    config = make_config(
        n_n=n_nodes, miners=(1.0,), b_delay=block_delay, t_delay=tx_delay, delay_mode=mode
    )
    return queue, Network(queue, RandomSource(seed), config)


def some_tx(tid=1, ts=0.0):
    return Transaction(tid, ts, 0, 1, 1.0, 0.001, 0.0002)


class TestDelayModel:
    def test_rejects_negative_delays(self):
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config_text("B_delay = -1\nsim_time = 10\n")
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config_text("T_delay = -0.5\nsim_time = 10\n")


class TestBroadcastBlock:
    def test_constant_delay_fanout(self):
        queue, net = make_network(3)
        events = net.broadcast_block(0, make_genesis(), at=10.0)
        assert len(events) == 2
        assert sorted(e.node_id for e in events) == [1, 2]
        assert all(e.time == 12.0 for e in events)
        assert all(e.kind == EventKind.BLOCK_RECEIVE for e in events)
        assert len(queue) == 2

    def test_single_node_no_events(self):
        queue, net = make_network(1)
        assert net.broadcast_block(0, make_genesis(), at=0.0) == []
        assert len(queue) == 0

    def test_fanout_is_always_n_minus_one(self):
        _, net = make_network(7)
        assert len(net.broadcast_block(3, make_genesis(), at=1.0)) == 6

    def test_exponential_mean_empirical(self):
        # 10,000 deliveries, mean 2: 3 sigma bound on the sample mean is 0.06.
        queue, net = make_network(2, block_delay=2.0, mode="exponential")
        n = 10_000
        total = 0.0
        for _ in range(n):
            (event,) = net.broadcast_block(0, make_genesis(), at=0.0)
            total += event.time
        assert abs(total / n - 2.0) < 0.06

    def test_exponential_mode_draws_per_recipient(self):
        _, net = make_network(4, block_delay=3.0, mode="exponential")
        events = net.broadcast_block(0, make_genesis(), at=0.0)
        delays = {e.time for e in events}
        assert len(delays) == 3  # independent draws


class TestBroadcastTx:
    def test_constant_delay_fanout(self):
        queue, net = make_network(4, tx_delay=5.0)
        events = net.broadcast_tx(1, some_tx(), at=100.0)
        assert len(events) == 3
        assert all(e.time == 105.0 for e in events)
        assert all(e.kind == EventKind.TX_RECEIVE for e in events)

    def test_light_mode_never_broadcasts_tx(self, monkeypatch):
        calls = []
        monkeypatch.setattr(Network, "broadcast_tx", lambda *args: calls.append(args))
        config = make_config(has_trans=True, t_technique="light", t_n=5.0, block_target=50)
        Simulation(config, 0).run()
        assert calls == []

    def test_zero_delay_events_pop_after_creation_instant(self):
        # Receive events scheduled at the same time as the creation pop later
        # because the queue breaks ties by insertion order.
        queue, net = make_network(2, tx_delay=0.0)
        events = net.broadcast_tx(0, some_tx(), at=100.0)
        assert events[0].time == 100.0
        before = queue._next_seq
        assert events[0].seq == before - 1

    def test_zero_mean_exponential_is_zero(self):
        _, net = make_network(2, tx_delay=0.0, mode="exponential")
        (event,) = net.broadcast_tx(0, some_tx(), at=7.0)
        assert event.time == 7.0
