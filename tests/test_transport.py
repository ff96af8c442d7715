"""Transport contract: tokens, polling, pacing, late replies, lifecycle."""
from __future__ import annotations

import heapq
import math
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHAIN_DOC
from test_icmp import stub_transport
from test_tracetree import measurement_scenarios
from netradar.model import serialize_round
from netradar.radar import RadarConfig, run_radar
from netradar.simnet import ECHO_REPLY, TIME_EXCEEDED, ScenarioError, SimState, load_topology
from netradar import transport as transport_module
from netradar.transport import (
    ProbeToken,
    SimTransport,
    TransportClosedError,
    TransportReply,
    WallClock,
)
from netradar.tracetree import tracetree

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


@pytest.mark.parametrize("cap", [-5.0, math.nan, math.inf, 1e-310])
def test_bad_rate_cap_rejected(cap):
    # the first three used to pace as uncapped, like cap 0; at 1e-310 the
    # pause 1/cap overflows to inf and the first send moved the clock there
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


class TestEventGate:
    """send() applies the events due by its send time, and calls
    apply_events only when one is."""

    @staticmethod
    def answered(at: float) -> list[bool]:
        # r1 turns silent at `at`; three ttl-1 probes go out at 0.0, 0.01
        # and 0.02 (1/100 apart: each sum is exact)
        doc = dict(CHAIN_DOC, events=[{"at": at, "change_policy": {"node": "r1", "policy": "silent"}}])
        transport = SimTransport(load_topology(doc), rate_cap=100.0)
        tokens = [transport.send(D, 1) for _ in range(3)]
        assert [t.sent_at for t in tokens] == [0.0, 0.01, 0.02]
        # a poll stops at the earliest arrival, so poll once per probe
        seqs = {r.token.seq for _ in tokens for r in transport.poll(10.0)}
        return [t.seq in seqs for t in tokens]

    @pytest.mark.parametrize(
        "at, answers",
        [
            (0.0, [False, False, False]),  # at the first send time
            (0.005, [True, False, False]),  # between the first two sends
            (0.01, [True, False, False]),  # at the second send time
            (0.02, [True, True, False]),
            (0.03, [True, True, True]),  # after the last send
        ],
    )
    def test_an_event_applies_from_the_first_send_at_or_after_its_time(self, at, answers):
        assert self.answered(at) == answers

    def test_no_call_once_the_schedule_is_used_up(self, monkeypatch):
        # the spy sits on the class attribute, where a traced run patches it
        calls = []
        real = SimState.apply_events

        def spy(self, up_to_time):
            calls.append(up_to_time)
            real(self, up_to_time)

        monkeypatch.setattr(SimState, "apply_events", spy)
        events = [{"at": at, "change_policy": {"node": "r1", "policy": "responsive"}} for at in (0.01, 0.025)]
        transport = SimTransport(load_topology(dict(CHAIN_DOC, events=events)), rate_cap=100.0)
        for _ in range(6):  # sends at 0.0, 0.01, ..., 0.05
            transport.send(D, 2)
        assert calls == [0.01, 0.03]
        assert transport.state.next_event_time == math.inf

    def test_no_call_without_events(self, monkeypatch):
        calls = []
        monkeypatch.setattr(SimState, "apply_events", lambda self, t: calls.append(t))
        transport = chain_transport()
        for ttl in (1, 2, 3):
            transport.send(D, ttl)
        transport.poll(10.0)
        assert calls == []


# -- SimTransport as it was, kept verbatim as the differential test's oracle --
# Its send() applied the event schedule on every probe, read the clock and
# paced through method calls, and built tokens and replies through the
# named tuples' constructors; the Transport rules it used are copied with
# it.  The current transport must hand out equal tokens and replies, count
# the same and leave the same clock.


def advance(clock, t: float) -> None:
    """Move a simulator clock forward onto `t` exactly, never back."""
    clock._now = max(clock._now, t)


class ReferenceSimTransport(SimTransport):
    """`SimTransport.send/poll/expire` and the `Transport` rules they used
    before send() gated the event schedule on its next event time."""

    def __init__(self, topology, *, per_hop_delay, rate_cap):
        super().__init__(topology, per_hop_delay=per_hop_delay, rate_cap=rate_cap)
        self.rate_cap = rate_cap

    def _emitted(self, destination, ttl, sent_at):
        """Number and count a probe just emitted, then pace."""
        self._seq += 1
        self.stats.sent += 1
        if self.rate_cap:
            self.clock.sleep(1.0 / self.rate_cap)
        return ProbeToken(destination, ttl, sent_at, self._seq)

    def _matched(self, reply):
        """Count a reply matched to its token: late if the caller expired
        the token, delivered otherwise."""
        seq = reply.token.seq
        if seq in self._expired:
            self._expired.discard(seq)
            self.stats.late += 1
            return reply._replace(late=True)
        self.stats.delivered += 1
        return reply

    def send(self, destination, ttl):
        """Emit one probe, then pace; returns its token."""
        self._check_open()
        now = self.clock.now()
        self.state.apply_events(now)
        outcome = self.state.route_probe(destination, ttl, now)
        token = self._emitted(destination, ttl, now)
        if outcome.kind in (TIME_EXCEEDED, ECHO_REPLY):
            arrival = now + 2.0 * self.per_hop_delay * outcome.hops
            self._replies[token.seq] = TransportReply(token, outcome.source, outcome.kind, arrival)
            heapq.heappush(self._pending, (arrival, token.seq))
        else:
            self.stats.unanswered += 1
        return token

    def poll(self, deadline):
        """Deliver replies.  Advances the virtual clock no further than the
        earliest pending arrival, or to the deadline when nothing is due."""
        self._check_open()
        advance(self.clock, min(self._pending[0][0], deadline) if self._pending else deadline)
        now = self.clock.now()
        out = []
        while self._pending and self._pending[0][0] <= now:
            _, seq = heapq.heappop(self._pending)
            out.append(self._matched(self._replies.pop(seq)))
        return out

    def expire(self, token):
        """The caller timed this token out; a later arrival is flagged late."""
        if token.seq in self._replies:
            self._expired.add(token.seq)


# event times: 0.0 and 0.005 are send times of an uncapped and a capped run
# from 0, 0.0125 falls between capped sends, and `advance` moves the clock
# onto each of them before a send
GRID = [0.0, 0.005, 0.0125, 0.05, 0.3]


@st.composite
def transport_scripts(draw):
    """A measurement scenario's topology, timings and rate cap, a schedule
    of up to four events at GRID times, and a script of direct transport
    calls: send, poll, expire, and advancing the clock to a GRID time."""
    doc, _, knobs = draw(measurement_scenarios())
    names = sorted(doc["nodes"])
    events = []
    for _ in range(draw(st.integers(1, 4))):
        victim = draw(st.sampled_from(names[1:]))
        policy = draw(st.sampled_from(["silent", "responsive", {"rate": 2.0}]))
        action = draw(
            st.sampled_from(
                [
                    {"change_policy": {"node": victim, "policy": policy}},
                    {"rewire": {"node": "n0", "add": victim}},
                    {"remove_node": victim},
                ]
            )
        )
        events.append({"at": draw(st.sampled_from(GRID)), **action})
    doc["events"] = events
    targets = [f"10.70.0.{i}" for i in range(2, len(names) + 1)] + ["10.70.1.250"]
    op = st.one_of(
        st.tuples(st.just("send"), st.sampled_from(targets), st.integers(1, 8)),
        st.tuples(st.just("poll"), st.sampled_from([0.0, 0.01, 0.05, 1.0])),
        st.tuples(st.just("expire"), st.integers(0, 40)),
        st.tuples(st.just("advance"), st.sampled_from(GRID)),
    )
    return doc, knobs, draw(st.lists(op, min_size=1, max_size=40))


def paired_transports(doc, knobs):
    return [
        cls(load_topology(doc), per_hop_delay=knobs["per_hop_delay"], rate_cap=knobs["rate_cap"])
        for cls in (SimTransport, ReferenceSimTransport)
    ]


def run_op(transport, op, tokens: list):
    """Apply one script step; returns what the call returned, or the
    ScenarioError text of an event that no longer fits the topology."""
    try:
        if op[0] == "send":
            tokens.append(transport.send(IPv4Address(op[1]), op[2]))
            return tokens[-1]
        if op[0] == "poll":
            return transport.poll(transport.clock.now() + op[1])
        if op[0] == "expire":
            return transport.expire(tokens[op[1] % len(tokens)]) if tokens else None
        return advance(transport.clock, op[1])
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


def assert_same_replies(new: list, old: list) -> None:
    assert new == old  # token fields, source, kind, arrival and late, in order
    assert [type(r) for r in new] == [type(r) for r in old] == [TransportReply] * len(old)
    assert [type(r.token) for r in new] == [ProbeToken] * len(new)


def assert_same_state(new, old) -> None:
    assert new.stats == old.stats
    assert len(new._expired) == len(old._expired)
    assert new.clock.now() == old.clock.now()


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(transport_scripts())
    def test_same_tokens_replies_stats_and_clock(self, script):
        doc, knobs, ops = script
        new, old = paired_transports(doc, knobs)
        new_tokens: list = []
        old_tokens: list = []
        for op in ops:
            got, want = run_op(new, op, new_tokens), run_op(old, op, old_tokens)
            assert got == want
            if op[0] == "send" and isinstance(got, tuple):
                assert type(got) is type(want) is ProbeToken
            elif op[0] == "poll" and isinstance(got, list):
                assert_same_replies(got, want)
            assert_same_state(new, old)
            if isinstance(got, str):  # the schedule broke: both sides stop here
                break

    @settings(max_examples=200, deadline=None)
    @given(measurement_scenarios())
    def test_same_round_logs(self, scenario):
        # two whole tracetree rounds in a row on each transport, with the
        # scenario's one event; the headers carry each round's clock
        doc, rounds, knobs = scenario
        new, old = paired_transports(doc, knobs)
        hops = {transport: {} for transport in (new, old)}
        for index, tasks in enumerate(rounds):
            logs = []
            for transport in (new, old):
                started = transport.clock.now()
                result = tracetree(tasks, transport, knobs["config"], restart_from=knobs["restart_from"], hops=hops[transport])
                hops[transport] = result.hops
                logs.append(serialize_round(result.raw, index, started, transport.clock.now()))
            assert logs[0] == logs[1]
            assert_same_state(new, old)
