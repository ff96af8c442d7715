"""Transport contract: tokens, polling, pacing, late replies, lifecycle."""
from __future__ import annotations

import math
from ipaddress import IPv4Address

import pytest

from conftest import CHAIN_DOC
from test_icmp import stub_transport
from netradar.radar import RadarConfig, run_radar
from netradar.simnet import SimState, load_topology
from netradar import transport as transport_module
from netradar.transport import (
    SimTransport,
    TransportClosedError,
    WallClock,
)

D = IPv4Address("10.0.0.4")


def chain_transport(**kwargs) -> SimTransport:
    return SimTransport(load_topology(dict(CHAIN_DOC)), **kwargs)


class TestSendPoll:
    def test_reply_surfaces_via_poll(self):
        transport = chain_transport()
        token = transport.send(D, 3)
        replies = transport.poll(transport.clock.now() + 1.0)
        assert len(replies) == 1
        reply = replies[0]
        assert reply.token == token
        assert reply.kind == "echo_reply"
        assert reply.source == D
        assert reply.received_at >= token.sent_at

    def test_reply_matches_route_probe_output(self):
        # transport adds latency bookkeeping only
        transport = chain_transport()
        oracle = SimState(load_topology(dict(CHAIN_DOC))).route_probe(D, 2, 0.0)
        transport.send(D, 2)
        [reply] = transport.poll(transport.clock.now() + 1.0)
        assert reply.kind == oracle.kind
        assert reply.source == oracle.source
        assert reply.received_at == 2.0 * transport.per_hop_delay * oracle.hops

    def test_silent_target_polls_empty(self):
        doc = dict(CHAIN_DOC)
        doc["nodes"] = dict(doc["nodes"])
        doc["nodes"]["r2"] = {"address": "10.0.0.3", "policy": "silent"}
        transport = SimTransport(load_topology(doc))
        transport.send(D, 2)
        assert transport.poll(transport.clock.now() + 5.0) == []
        assert transport.stats.unanswered == 1

    def test_poll_does_not_overshoot_first_arrival(self):
        transport = chain_transport()
        transport.send(D, 1)  # rtt 0.02
        transport.clock.sleep(0.005)
        transport.send(D, 3)  # rtt 0.06
        replies = transport.poll(10.0)
        assert [r.token.ttl for r in replies] == [1]
        assert transport.clock.now() == pytest.approx(0.02)
        replies = transport.poll(10.0)
        assert [r.token.ttl for r in replies] == [3]

    def test_poll_advances_to_deadline_when_idle(self):
        transport = chain_transport()
        transport.poll(4.5)
        assert transport.clock.now() == 4.5

    def test_late_reply_flagged_and_counted(self):
        transport = chain_transport()
        token = transport.send(D, 3)
        transport.expire(token)  # caller timed it out
        [reply] = transport.poll(transport.clock.now() + 1.0)
        assert reply.late
        assert transport.stats.late == 1
        assert transport.stats.delivered == 0

    def test_matching_soundness(self):
        transport = chain_transport()
        issued = set()
        for ttl in (1, 2, 3):
            issued.add(transport.send(D, ttl).seq)
            transport.clock.sleep(0.01)
        delivered = [r.token.seq for r in transport.poll(5.0) + transport.poll(5.0) + transport.poll(5.0)]
        assert set(delivered) <= issued
        assert len(delivered) == len(set(delivered))  # never twice


class TestPacingAndLifecycle:
    @pytest.mark.parametrize("cap, gap", [(50.0, 0.02), (0.0, 0.0)])
    def test_send_paces_itself(self, cap, gap):
        # two direct sends: the second goes out 1/cap after the first, and
        # uncapped the clock does not move
        transport = chain_transport(rate_cap=cap)
        first = transport.send(D, 1)
        second = transport.send(D, 2)
        assert second.sent_at - first.sent_at == gap
        assert transport.clock.now() == 2 * gap
        assert transport.stats.backpressure_events == 0

    @pytest.mark.parametrize("backend", ["sim", "icmp"])
    def test_send_after_close(self, monkeypatch, backend):
        transport = chain_transport() if backend == "sim" else stub_transport(monkeypatch)
        transport.close()
        with pytest.raises(TransportClosedError):
            transport.send(D, 1)
        with pytest.raises(TransportClosedError):
            transport.poll(1.0)

    def test_monitor_hop(self):
        transport = chain_transport()
        assert str(transport.monitor_hop) == "10.0.0.1"


def test_wall_clock_intervals_ignore_clock_steps(monkeypatch):
    # the system clock is set back an hour, then forward a day, while 1.5 s
    # pass: timestamps stay wall time and never run backwards
    readings = {"time": 1_700_000_000.0, "monotonic": 50.0}
    monkeypatch.setattr(transport_module.time, "time", lambda: readings["time"])
    monkeypatch.setattr(transport_module.time, "monotonic", lambda: readings["monotonic"])
    clock = WallClock()
    assert clock.now() == 1_700_000_000.0
    readings.update(time=1_700_000_000.0 - 3600.0, monotonic=51.0)
    assert clock.now() == 1_700_000_001.0
    readings.update(time=1_700_000_000.0 + 86400.0, monotonic=51.5)
    assert clock.now() == 1_700_000_001.5


@pytest.mark.parametrize("cap", [50.0, 1000.0, 0.0])
def test_engine_pacing_spaces_sends(cap):
    # probes queued together go out 1/cap apart, or back to back uncapped
    from netradar.tracetree import DestinationTask, TracetreeConfig, tracetree

    sent_times = []

    class Spy(SimTransport):
        def send(self, destination, ttl):
            token = super().send(destination, ttl)
            sent_times.append(token.sent_at)
            return token

    transport = Spy(load_topology(dict(CHAIN_DOC)), rate_cap=cap)
    unknown = [IPv4Address(f"192.0.2.{i}") for i in range(1, 5)]
    tracetree([DestinationTask(d, 2) for d in [D, *unknown]], transport, TracetreeConfig(), restart_from=None, hops=None)
    gaps = [b - a for a, b in zip(sent_times, sent_times[1:])]
    gap = 1.0 / cap if cap else 0.0
    assert min(gaps) == pytest.approx(gap)
    assert all(g >= gap - 1e-9 for g in gaps)


@pytest.mark.parametrize("cap", [-5.0, math.nan, math.inf])
def test_bad_rate_cap_rejected(cap):
    # each of these used to pace as uncapped, like cap 0
    with pytest.raises(ValueError, match="rate_cap"):
        chain_transport(rate_cap=cap)


@pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf])
def test_bad_per_hop_delay_rejected(delay):
    # NaN or inf: no reply ever comes due; -1: replies arrive before their probes
    with pytest.raises(ValueError, match="per_hop_delay"):
        chain_transport(per_hop_delay=delay)


class TestExpiredBookkeeping:
    def test_unanswered_probes_leave_nothing_behind(self, fig1_topology):
        # the silent router times out a probe every round; with no reply
        # pending for it, its seq must not be kept
        transport = SimTransport(fig1_topology)
        destinations = [IPv4Address(a) for a in ("10.0.1.14", "10.0.1.15", "10.0.1.16")]
        sizes = []

        class Sink:
            def write(self, record):
                sizes.append(len(transport._expired))

        run_radar(RadarConfig(destinations=destinations, rounds=120), transport, Sink())
        assert transport.stats.unanswered >= 120
        assert sizes == [0] * 120

    def test_late_replies_still_flagged(self):
        # three hops at 0.5 s each way: the ttl-3 reply lands 3 s after its
        # send, past the engine's 2 s timeout
        from netradar.tracetree import DestinationTask, TracetreeConfig, tracetree

        transport = chain_transport(per_hop_delay=0.5)
        for _ in range(3):
            result = tracetree([DestinationTask(D, 3)], transport, TracetreeConfig(), restart_from=None, hops=None)
            assert result.stats.late_replies == 1
            assert transport._expired <= transport._replies.keys()
        assert transport.stats.late == 3
        assert not transport._expired  # every late reply has arrived

    def test_expire_after_delivery_records_nothing(self):
        transport = chain_transport()
        token = transport.send(D, 3)
        transport.poll(transport.clock.now() + 1.0)
        transport.expire(token)
        assert not transport._expired
