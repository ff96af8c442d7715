"""Simulator: loading/validation, probe routing, policies, events."""
from __future__ import annotations

import json
import math
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CHAIN_DOC,
    MALFORMED_TOPOLOGIES,
    RATE_LIMITS_THAT_CANNOT_LIMIT,
    fig1_analog_doc,
    perfbench_inet,
    rate_limited_chain_json,
)
from netradar.simnet import (
    ECHO_REPLY,
    RESPONSIVE,
    SILENCE,
    SILENT,
    TIME_EXCEEDED,
    UNREACHABLE,
    AddIsland,
    ChangePolicy,
    RateLimited,
    RemoveNode,
    RewireLink,
    ScenarioError,
    SimReply,
    SimState,
    TopologyError,
    _address_map,
    load_topology,
)
from netradar.model import serialize_round
from netradar.radar import RadarConfig, radar_rounds
from netradar.transport import SimTransport

D = IPv4Address("10.0.0.4")


class TestLoadTopology:
    def test_linear_chain(self, chain_topology):
        assert len(chain_topology.addresses) == 4
        assert sum(len(v) for v in chain_topology.links.values()) == 3
        assert chain_topology.monitor == "mon"

    def test_fig1_analog_loads(self, fig1_topology):
        assert "l" in fig1_topology.addresses
        assert fig1_topology.policies["l"] == "silent"
        assert isinstance(fig1_topology.balancers["e"], list)  # per-packet: the next hops it cycles through

    def test_balancer_to_non_neighbor_rejected(self):
        doc = dict(CHAIN_DOC)
        doc["balancers"] = {"r1": {"per_destination": {"10.0.0.4": "d"}}}  # d is 2 hops away
        with pytest.raises(TopologyError, match="'d' is not a neighbour of 'r1'"):
            load_topology(doc)

    def test_dangling_link_rejected(self):
        doc = {
            "monitor": "a",
            "nodes": {"a": "10.0.0.1"},
            "links": [["a", "ghost"]],
        }
        with pytest.raises(TopologyError, match="ghost"):
            load_topology(doc)

    def test_duplicate_address_rejected(self):
        doc = {
            "monitor": "a",
            "nodes": {"a": "10.0.0.1", "b": "10.0.0.1"},
            "links": [["a", "b"]],
        }
        with pytest.raises(TopologyError, match="duplicate address"):
            load_topology(doc)

    def test_unknown_monitor_rejected(self):
        with pytest.raises(TopologyError, match="monitor"):
            load_topology({"monitor": "nope", "nodes": {"a": "10.0.0.1"}, "links": []})

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(
            '{"monitor": "a", "nodes": {"a": "10.0.0.1", "b": "10.0.0.2"}, "links": [["a", "b"]]}',
            encoding="utf-8",
        )
        topology = load_topology(path)
        assert topology.addresses["b"] == IPv4Address("10.0.0.2")

    def test_inet_document_loads_the_same_from_a_file(self, tmp_path):
        doc = perfbench_inet().generate(3001, 200).doc
        path = tmp_path / "inet.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_topology(path) == load_topology(doc)

    @pytest.mark.parametrize("source", [3, b'{"monitor": "a"}', None], ids=["int", "bytes", "None"])
    def test_other_sources_rejected(self, source):
        # a dict, a str path or a Path; an int would open a file descriptor
        with pytest.raises(TopologyError, match="cannot load a topology from"):
            load_topology(source)

    def test_rate_limit_params_validated(self):
        with pytest.raises(TopologyError):
            RateLimited(rate=0.0)
        with pytest.raises(TopologyError):
            RateLimited(rate=1.0, burst=0)

    @pytest.mark.parametrize("rate", ["2", True], ids=["string", "bool"])
    def test_rate_that_is_no_number_named(self, rate):
        # refused as a burst of the same value is, not read as 2.0 or 1.0
        nodes = dict(CHAIN_DOC["nodes"], r1={"address": "10.0.0.2", "policy": {"rate": rate}})
        with pytest.raises(TopologyError, match=f"rate limit rate must be a finite number > 0, got {rate!r}"):
            load_topology(dict(CHAIN_DOC, nodes=nodes))

    @pytest.mark.parametrize("doc, match", MALFORMED_TOPOLOGIES)
    def test_malformed_document_named(self, doc, match):
        with pytest.raises(TopologyError, match=match):
            load_topology(doc)

    @pytest.mark.parametrize("policy", RATE_LIMITS_THAT_CANNOT_LIMIT)
    def test_rate_limit_that_cannot_limit_rejected(self, tmp_path, policy):
        path = tmp_path / "topo.json"
        path.write_text(rate_limited_chain_json(policy), encoding="utf-8")
        with pytest.raises(TopologyError, match="rate limit"):
            load_topology(path)


class TestRouteProbe:
    def test_ttl_expiry_at_first_hop(self, chain_topology):
        reply = SimState(chain_topology).route_probe(D, 1, 0.0)
        assert reply.kind == TIME_EXCEEDED
        assert reply.source == IPv4Address("10.0.0.2")
        assert reply.hops == 1

    def test_echo_at_exact_distance(self, chain_topology):
        reply = SimState(chain_topology).route_probe(D, 3, 0.0)
        assert reply.kind == ECHO_REPLY
        assert reply.source == D

    def test_echo_with_ttl_to_spare(self, chain_topology):
        reply = SimState(chain_topology).route_probe(D, 30, 0.0)
        assert reply.kind == ECHO_REPLY
        assert reply.hops == 3

    def test_unknown_destination_unreachable(self, chain_topology):
        reply = SimState(chain_topology).route_probe(IPv4Address("192.0.2.9"), 5, 0.0)
        assert reply.kind == UNREACHABLE

    @pytest.mark.parametrize("ttl", [1, 5])
    def test_monitor_and_pathless_destinations_unreachable_at_hop_1(self, ttl):
        doc = dict(CHAIN_DOC)
        doc["nodes"] = {**CHAIN_DOC["nodes"], "lone": "10.0.0.9"}  # no link reaches it
        state = SimState(load_topology(doc))
        for destination in ("10.0.0.1", "10.0.0.9"):
            assert state.route_probe(IPv4Address(destination), ttl, 0.0) == (UNREACHABLE, None, 1)

    def test_per_packet_balancer_alternates(self, fig1_topology):
        state = SimState(fig1_topology)
        p = IPv4Address("10.0.1.16")
        # e at hop 3 forwards alternately to i and h (hop 4)
        first = state.route_probe(p, 4, 0.0)
        second = state.route_probe(p, 4, 0.1)
        assert first.kind == second.kind == TIME_EXCEEDED
        assert {first.source, second.source} == {
            IPv4Address("10.0.1.9"),
            IPv4Address("10.0.1.8"),
        }
        third = state.route_probe(p, 4, 0.2)
        assert third.source == first.source  # cycle wraps

    def test_per_destination_balancer_routes_by_destination(self, fig1_topology):
        state = SimState(fig1_topology)
        n, o = IPv4Address("10.0.1.14"), IPv4Address("10.0.1.15")
        assert state.route_probe(n, 2, 0.0).source == IPv4Address("10.0.1.4")  # via d
        assert state.route_probe(o, 2, 0.1).source == IPv4Address("10.0.1.6")  # via f

    def test_silent_node_gives_silence(self, fig1_topology):
        state = SimState(fig1_topology)
        n = IPv4Address("10.0.1.14")
        reply = state.route_probe(n, 4, 0.0)  # l sits at hop 4 on n's path
        assert reply.kind == SILENCE
        assert reply.source is None

    def test_rate_limited_token_bucket(self):
        doc = {
            "monitor": "mon",
            "nodes": {
                "mon": "10.0.0.1",
                "r": {"address": "10.0.0.2", "policy": {"rate": 1.0, "burst": 1}},
                "d": "10.0.0.3",
            },
            "links": [["mon", "r"], ["r", "d"]],
        }
        state = SimState(load_topology(doc))
        first = state.route_probe(IPv4Address("10.0.0.3"), 1, 0.0)
        second = state.route_probe(IPv4Address("10.0.0.3"), 1, 0.1)
        assert first.kind == TIME_EXCEEDED
        assert second.kind == SILENCE
        # a second later the bucket has refilled
        third = state.route_probe(IPv4Address("10.0.0.3"), 1, 1.2)
        assert third.kind == TIME_EXCEEDED

    def test_rate_limiter_conservation(self):
        doc = {
            "monitor": "mon",
            "nodes": {
                "mon": "10.0.0.1",
                "r": {"address": "10.0.0.2", "policy": {"rate": 2.0, "burst": 3}},
                "d": "10.0.0.3",
            },
            "links": [["mon", "r"], ["r", "d"]],
        }
        state = SimState(load_topology(doc))
        window = 5.0
        replies = sum(
            state.route_probe(IPv4Address("10.0.0.3"), 1, t * 0.05).kind == TIME_EXCEEDED
            for t in range(int(window / 0.05))
        )
        assert replies <= 3 + 2.0 * window

    def test_determinism(self, fig1_topology):
        def run():
            state = SimState(fig1_topology)
            out = []
            for i, dest in enumerate(["10.0.1.14", "10.0.1.15", "10.0.1.16"] * 4):
                reply = state.route_probe(IPv4Address(dest), (i % 5) + 1, i * 0.01)
                out.append((reply.kind, reply.source, reply.hops))
            return out

        assert run() == run()

    def test_per_destination_paths_stable(self, fig1_topology):
        state = SimState(fig1_topology)
        n = IPv4Address("10.0.1.14")
        replies = [state.route_probe(n, 3, t * 0.5) for t in range(4)]
        assert len({r.source for r in replies}) == 1

    def test_routing_never_hashes_an_address(self, monkeypatch):
        # routing is keyed by the address integer: with IPv4Address
        # unhashable, both balancer kinds and applied events answer as ever
        doc = fig1_analog_doc()
        doc["links"] = [*doc["links"], ["f", "n"]]  # n's shortest path: a b f n; b sends n via d
        doc["events"] = [
            {"at": 5.0, "change_policy": {"node": "l", "policy": "responsive"}},
            {"at": 5.0, "add_island": {"nodes": {"q": "10.0.1.17"}, "links": [["o", "q"]]}},
        ]
        state = SimState(load_topology(doc))
        n, o, p, q = (IPv4Address(f"10.0.1.{i}") for i in (14, 15, 16, 17))
        probes = [(n, 2, 0.0), (n, 4, 0.0), (n, 9, 0.0), (o, 2, 0.0), (p, 4, 0.0), (p, 4, 0.0), (n, 4, 6.0), (q, 9, 6.0)]

        def unhashable(address):
            raise TypeError(f"{address!r} hashed")

        monkeypatch.setattr(IPv4Address, "__hash__", unhashable)
        replies = []
        for destination, ttl, at in probes:
            state.apply_events(at)
            replies.append(state.route_probe(destination, ttl, at))
        monkeypatch.undo()
        assert replies == [
            (TIME_EXCEEDED, IPv4Address("10.0.1.4"), 2),  # per-destination: via d
            (SILENCE, None, 4),
            (ECHO_REPLY, n, 5),
            (TIME_EXCEEDED, IPv4Address("10.0.1.6"), 2),
            (TIME_EXCEEDED, IPv4Address("10.0.1.9"), 4),  # per-packet: i, then h
            (TIME_EXCEEDED, IPv4Address("10.0.1.8"), 4),
            (TIME_EXCEEDED, IPv4Address("10.0.1.12"), 4),  # l answers after its policy change
            (ECHO_REPLY, q, 5),  # the island
        ]


class TestEvents:
    def test_no_events_keeps_state(self, chain_topology):
        state = SimState(chain_topology)
        before = state.route_probe(D, 2, 0.0)
        state.apply_events(100.0)
        after = state.route_probe(D, 2, 100.0)
        assert (before.kind, before.source) == (after.kind, after.source)

    def test_rewire_changes_path(self):
        doc = {
            "monitor": "mon",
            "nodes": {"mon": "10.0.0.1", "r1": "10.0.0.2", "r2": "10.0.0.3", "r3": "10.0.0.5", "d": "10.0.0.4"},
            "links": [["mon", "r1"], ["r1", "r2"], ["r2", "d"], ["r3", "d"]],
            "events": [{"at": 50.0, "rewire": {"node": "r1", "remove": "r2", "add": "r3"}}],
        }
        state = SimState(load_topology(doc))
        state.apply_events(10.0)
        assert state.route_probe(D, 2, 10.0).source == IPv4Address("10.0.0.3")
        state.apply_events(60.0)
        assert state.route_probe(D, 2, 60.0).source == IPv4Address("10.0.0.5")

    def test_island_becomes_observable(self, chain_topology):
        doc = dict(CHAIN_DOC)
        doc["events"] = [
            {
                "at": 100.0,
                "add_island": {
                    "nodes": {f"x{i}": f"10.5.0.{i}" for i in range(9)},
                    "links": [["r2", "x0"]] + [[f"x{i}", f"x{i+1}"] for i in range(8)],
                },
            }
        ]
        state = SimState(load_topology(doc))
        state.apply_events(10.0)
        assert state.route_probe(IPv4Address("10.5.0.8"), 11, 10.0).kind == UNREACHABLE
        state.apply_events(101.0)
        reply = state.route_probe(IPv4Address("10.5.0.8"), 11, 101.0)
        assert reply.kind == ECHO_REPLY
        assert reply.hops == 11

    def test_change_policy(self, chain_topology):
        doc = dict(CHAIN_DOC)
        doc["events"] = [{"at": 5.0, "change_policy": {"node": "r1", "policy": "silent"}}]
        state = SimState(load_topology(doc))
        state.apply_events(6.0)
        assert state.route_probe(D, 1, 6.0).kind == SILENCE

    def test_remove_node(self, chain_topology):
        doc = dict(CHAIN_DOC)
        doc["events"] = [{"at": 5.0, "remove_node": "r2"}]
        state = SimState(load_topology(doc))
        state.apply_events(6.0)
        assert state.route_probe(D, 3, 6.0).kind == UNREACHABLE

    def test_remove_node_listed_twice_as_a_link(self):
        # a link listed twice is one link: removing its node leaves no
        # dangling neighbour for a later event to trip over
        doc = dict(CHAIN_DOC)
        doc["links"] = list(CHAIN_DOC["links"]) + [["r1", "r2"]]
        doc["events"] = [
            {"at": 5.0, "remove_node": "r2"},
            {"at": 6.0, "rewire": {"node": "r1", "add": "d"}},
        ]
        state = SimState(load_topology(doc))
        state.apply_events(7.0)
        assert state.route_probe(D, 3, 7.0) == (ECHO_REPLY, D, 2)

    def test_remove_node_leaves_other_states_and_the_topology_unchanged(self):
        doc = fig1_analog_doc()
        doc["links"] = [*doc["links"], ["f", "n"]]  # n's shortest path: a b f n
        doc["events"] = [{"at": 5.0, "remove_node": "d"}]  # n's balancer next hop
        topology = load_topology(doc)
        table = dict(topology.balancers["b"])
        n = IPv4Address("10.0.1.14")
        edited, untouched = SimState(topology), SimState(topology)
        edited.apply_events(6.0)
        assert edited.route_probe(n, 2, 6.0) == (TIME_EXCEEDED, IPv4Address("10.0.1.6"), 2)  # via f
        assert edited.route_probe(n, 3, 6.0) == (ECHO_REPLY, n, 3)
        assert topology.balancers["b"] == table
        assert untouched.route_probe(n, 2, 6.0).source == IPv4Address("10.0.1.4")  # still via d
        assert untouched.route_probe(n, 9, 6.0) == (ECHO_REPLY, n, 5)

    def test_event_referencing_unknown_node(self):
        doc = dict(CHAIN_DOC)
        doc["events"] = [{"at": 5.0, "remove_node": "ghost"}]
        state = SimState(load_topology(doc))
        with pytest.raises(ScenarioError, match="ghost"):
            state.apply_events(6.0)

    def test_island_reusing_an_address_rejected(self):
        doc = dict(CHAIN_DOC, events=[{"at": 5.0, "add_island": {"nodes": {"x": "10.0.0.3"}, "links": [["r1", "x"]]}}])
        state = SimState(load_topology(doc))
        with pytest.raises(ScenarioError, match="duplicate address 10.0.0.3: nodes 'r2' and 'x'"):
            state.apply_events(6.0)

    def test_event_clock_must_not_go_backwards(self, chain_topology):
        state = SimState(chain_topology)
        state.apply_events(10.0)
        with pytest.raises(ScenarioError):
            state.apply_events(5.0)

    def test_nan_event_clock_rejected(self, chain_topology):
        # a NaN time would pass every later check, going backwards included
        state = SimState(chain_topology)
        with pytest.raises(ScenarioError):
            state.apply_events(float("nan"))
        state.apply_events(10.0)
        with pytest.raises(ScenarioError):
            state.apply_events(float("nan"))
        with pytest.raises(ScenarioError):
            state.apply_events(-5.0)

    @pytest.mark.parametrize("at", [float("nan"), float("inf"), -1.0])
    def test_event_time_must_be_finite_and_not_negative(self, at):
        # an event at NaN that sorts first would block every later event
        doc = dict(CHAIN_DOC)
        doc["events"] = [
            {"at": at, "change_policy": {"node": "r1", "policy": "silent"}},
            {"at": 5.0, "change_policy": {"node": "r2", "policy": "silent"}},
        ]
        with pytest.raises(TopologyError, match=f"event time must be a finite number >= 0, got {at!r}$"):
            load_topology(doc)

    def test_events_apply_once_in_order(self):
        doc = dict(CHAIN_DOC)
        doc["events"] = [
            {"at": 10.0, "change_policy": {"node": "r1", "policy": "silent"}},
            {"at": 20.0, "change_policy": {"node": "r1", "policy": "responsive"}},
        ]
        state = SimState(load_topology(doc))
        state.apply_events(30.0)  # both applied, final policy responsive
        assert state.route_probe(D, 1, 30.0).kind == TIME_EXCEEDED

    def test_next_event_time_follows_the_schedule(self):
        # the transport calls apply_events only once its clock reaches it
        doc = dict(CHAIN_DOC)
        doc["events"] = [
            {"at": at, "change_policy": {"node": "r1", "policy": policy}}
            for at, policy in ((10.0, "silent"), (5.0, "silent"), (5.0, "responsive"))
        ]
        state = SimState(load_topology(doc))
        assert state.next_event_time == 5.0
        state.apply_events(4.0)
        assert state.next_event_time == 5.0
        state.apply_events(5.0)  # both at 5.0, in document order
        assert state.next_event_time == 10.0
        assert state.route_probe(D, 1, 5.0).kind == TIME_EXCEEDED
        state.apply_events(10.0)
        assert state.next_event_time == math.inf
        assert SimState(load_topology(dict(CHAIN_DOC))).next_event_time == math.inf

    def test_a_failing_event_leaves_the_later_ones_waiting(self):
        doc = dict(CHAIN_DOC)
        doc["events"] = [
            {"at": 5.0, "remove_node": "ghost"},
            {"at": 10.0, "change_policy": {"node": "r1", "policy": "silent"}},
        ]
        state = SimState(load_topology(doc))
        with pytest.raises(ScenarioError, match="ghost"):
            state.apply_events(6.0)
        assert state.next_event_time == 10.0
        state.apply_events(7.0)
        assert state.route_probe(D, 1, 7.0).kind == TIME_EXCEEDED

    def test_removing_the_monitor_refused(self):
        # the radar would run its rounds, then find no monitor to report;
        # `_apply` refuses it too (FAILING_EVENTS)
        doc = dict(CHAIN_DOC, events=[{"at": 5.0, "remove_node": "mon"}])
        with pytest.raises(TopologyError, match="event at 5 removes the monitor 'mon'"):
            load_topology(doc)


def _island(*nodes: tuple[str, str], links=(("r1", "x"),)) -> AddIsland:
    return AddIsland({name: (IPv4Address(a), RESPONSIVE) for name, a in nodes}, list(links))


# events that fail against CHAIN_DOC (mon -> r1 -> r2 -> d), each after
# checks that pass: a check made after a change would leave it half done
FAILING_EVENTS = {
    "rewire-unknown-add": (RewireLink("r1", remove="r2", add="nosuch"), "unknown node 'nosuch'"),
    "rewire-unknown-node": (RewireLink("ghost", add="d"), "unknown node 'ghost'"),
    "rewire-missing-link": (RewireLink("r1", remove="d", add="mon"), "no link 'r1' -> 'd'"),
    "island-existing-address": (
        _island(("x", "10.0.0.9"), ("y", "10.0.0.3")),
        "duplicate address 10.0.0.3: nodes 'r2' and 'y'",
    ),
    "island-twin-addresses": (
        _island(("x", "10.0.0.9"), ("y", "10.0.0.9")),
        "duplicate address 10.0.0.9: nodes 'x' and 'y'",
    ),
    "island-unknown-link": (
        _island(("x", "10.0.0.9"), links=[("r1", "x"), ("x", "ghost")]),
        "unknown node 'ghost'",
    ),
    "island-existing-name": (_island(("x", "10.0.0.9"), ("r2", "10.0.0.8")), "'r2' already exists"),
    "remove-unknown-node": (RemoveNode("ghost"), "unknown node 'ghost'"),
    "remove-the-monitor": (RemoveNode("mon"), "'mon' is the monitor"),
    "policy-unknown-node": (ChangePolicy("ghost", SILENT), "unknown node 'ghost'"),
}


class TestAtomicEvents:
    @pytest.mark.parametrize("name", sorted(FAILING_EVENTS))
    def test_a_failing_event_changes_nothing(self, name):
        action, match = FAILING_EVENTS[name]
        doc = dict(CHAIN_DOC, nodes=dict(CHAIN_DOC["nodes"], r2={"address": "10.0.0.3", "policy": {"rate": 1.0}}))
        topology = load_topology(doc)
        state, untouched = SimState(topology), SimState(topology)
        addresses = [IPv4Address(f"10.0.0.{i}") for i in (1, 2, 3, 4, 8, 9)]
        probes = [(a, ttl) for a in addresses for ttl in (1, 2, 3, 4)]
        for at, (destination, ttl) in enumerate(probes):  # every route entry warm
            assert state.route_probe(destination, ttl, at) == untouched.route_probe(destination, ttl, at)
        with pytest.raises(ScenarioError, match=match):
            state._apply(action)
        assert state._adj == untouched._adj
        assert state.addresses == untouched.addresses
        assert state._addr_to_node == untouched._addr_to_node
        assert state.policies == untouched.policies
        for at, (destination, ttl) in enumerate(probes, start=len(probes)):
            assert state.route_probe(destination, ttl, at) == untouched.route_probe(destination, ttl, at)
        assert state._buckets == untouched._buckets


class TestBalancerChoiceOnACutLink:
    """A balancer's choice counts only while it is a current out-link: a
    probe whose choice an event cut or removed follows its shortest path,
    and the balancer is back once the link is."""

    # mon -> a -> {b, c} -> d: the shortest path is a b d, c is the other twin
    DOC = {
        "monitor": "mon",
        "nodes": {"mon": "10.0.0.1", "a": "10.0.0.2", "b": "10.0.0.3", "c": "10.0.0.4", "d": "10.0.0.5"},
        "links": [["mon", "a"], ["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
        "events": [
            {"at": 10.0, "rewire": {"node": "a", "remove": "c"}},
            {"at": 20.0, "rewire": {"node": "a", "add": "c"}},
        ],
    }
    B, C, D = IPv4Address("10.0.0.3"), IPv4Address("10.0.0.4"), IPv4Address("10.0.0.5")

    def _hop2(self, state: SimState, at: float) -> list:
        return [state.route_probe(self.D, 2, at).source for _ in range(4)]

    def test_per_packet_turn_on_a_cut_link_follows_the_path(self):
        state = SimState(load_topology(dict(self.DOC, balancers={"a": {"per_packet": ["b", "c"]}})))
        assert self._hop2(state, 0.0) == [self.B, self.C] * 2
        state.apply_events(10.0)
        assert self._hop2(state, 10.0) == [self.B] * 4
        assert state.route_probe(self.D, 3, 10.0) == (ECHO_REPLY, self.D, 3)
        assert state._pp_counters == {"a": 9}  # one turn per traversal, taken or not
        state.apply_events(20.0)
        assert self._hop2(state, 20.0) == [self.C, self.B] * 2  # nine turns taken: c's is next

    def test_per_destination_entry_on_a_cut_link_follows_the_path(self):
        state = SimState(load_topology(dict(self.DOC, balancers={"a": {"per_destination": {"10.0.0.5": "c"}}})))
        assert self._hop2(state, 0.0) == [self.C] * 4
        state.apply_events(10.0)
        assert self._hop2(state, 10.0) == [self.B] * 4
        state.apply_events(20.0)
        assert self._hop2(state, 20.0) == [self.C] * 4

    def test_removed_per_packet_member_follows_the_path(self):
        doc = dict(self.DOC, balancers={"a": {"per_packet": ["b", "c"]}}, events=[{"at": 10.0, "remove_node": "c"}])
        state = SimState(load_topology(doc))
        state.apply_events(10.0)
        assert self._hop2(state, 10.0) == [self.B] * 4
        assert [state.route_probe(self.D, 3, 10.0) for _ in range(2)] == [(ECHO_REPLY, self.D, 3)] * 2


class TestMemoInvalidation:
    """A probe before the event fills the route memo; the probe after it
    must see the event, never the memoized route."""

    CASES = {
        "rewire": (
            {
                "nodes": {"r3": "10.0.0.5"},
                "links": [["r3", "d"]],
                "event": {"rewire": {"node": "r1", "remove": "r2", "add": "r3"}},
            },
            2,
            (TIME_EXCEEDED, IPv4Address("10.0.0.3"), 2),
            (TIME_EXCEEDED, IPv4Address("10.0.0.5"), 2),
        ),
        "add_island": (
            {
                "event": {
                    "add_island": {
                        "nodes": {"x": "10.0.0.9"},
                        "links": [["mon", "x"], ["x", "d"]],
                    }
                },
            },
            3,
            (ECHO_REPLY, D, 3),
            (ECHO_REPLY, D, 2),  # the island is a shortcut
        ),
        "remove_node": (
            {"event": {"remove_node": "r2"}},
            3,
            (ECHO_REPLY, D, 3),
            (UNREACHABLE, None, 1),  # no path: the monitor has no next hop
        ),
        "change_policy": (
            {"event": {"change_policy": {"node": "r1", "policy": "silent"}}},
            1,
            (TIME_EXCEEDED, IPv4Address("10.0.0.2"), 1),
            (SILENCE, None, 1),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_probe_after_event_sees_it(self, kind):
        extra, ttl, before, after = self.CASES[kind]
        doc = {
            "monitor": CHAIN_DOC["monitor"],
            "nodes": {**CHAIN_DOC["nodes"], **extra.get("nodes", {})},
            "links": list(CHAIN_DOC["links"]) + extra.get("links", []),
            "events": [{"at": 50.0, **extra["event"]}],
        }
        state = SimState(load_topology(doc))
        state.apply_events(10.0)
        assert tuple(state.route_probe(D, ttl, 10.0)) == before
        state.apply_events(60.0)
        assert tuple(state.route_probe(D, ttl, 60.0)) == after

    def test_policy_change_keeps_the_paths(self):
        # a policy moves no route: only the entry whose path holds the node
        # is dropped, the other branch's is kept as it was
        doc = {
            "monitor": "mon",
            "nodes": {"mon": "10.0.0.1", "r1": "10.0.0.2", "r2": "10.0.0.3", "d1": "10.0.0.4", "d2": "10.0.0.5"},
            "links": [["mon", "r1"], ["r1", "d1"], ["mon", "r2"], ["r2", "d2"]],
            "events": [{"at": 50.0, "change_policy": {"node": "r1", "policy": "silent"}}],
        }
        d1, d2 = IPv4Address("10.0.0.4"), IPv4Address("10.0.0.5")
        state = SimState(load_topology(doc))
        for destination in (d1, d2):
            state.route_probe(destination, 1, 10.0)
        parents, kept = dict(state._parents), state._routes[int(d2)]
        state.apply_events(60.0)
        assert state._parents == parents
        assert state._routes == {int(d2): kept} and state._routes[int(d2)] is kept
        assert state.route_probe(d1, 1, 60.0) == (SILENCE, None, 1)
        assert state.route_probe(d2, 1, 60.0) == (TIME_EXCEEDED, IPv4Address("10.0.0.3"), 1)


# -- the previous route_probe, kept as the differential test's oracle
# It walked every probe hop by hop from the monitor.  The current
# route_probe must give equal replies and leave equal per-packet counters
# and rate-limit buckets on every input.  It is verbatim but for the rule
# both share at a balancer: a choice counts only if it is a current out-link.


def _address(value) -> IPv4Address:
    return value if isinstance(value, IPv4Address) else IPv4Address(value)


def oracle_route_probe(self: SimState, destination, ttl: int, at_time: float) -> SimReply:
    """`SimState.route_probe` as it was before the per-destination route
    entry: the reference the differential test holds it to."""
    if ttl < 1:
        raise ValueError(f"ttl must be >= 1, got {ttl}")
    dest = _address(destination)
    d = dest._ip
    target = self._addr_to_node.get(d)
    balancers = self.balancers
    node = self.monitor
    plan = self._path_from(node, d)
    plan_pos = 0
    for hop_index in range(1, ttl + 1):
        planned = None
        if plan is not None and plan_pos + 1 < len(plan):
            planned = plan[plan_pos + 1]
        balancer = balancers.get(node)
        if balancer is None:
            nxt = planned
        elif isinstance(balancer, list):
            count = self._pp_counters.get(node, 0)
            self._pp_counters[node] = count + 1
            nxt = balancer[count % len(balancer)]
        else:
            nxt = balancer.get(d, planned)
        if nxt not in self._adj[node]:
            nxt = planned
        if nxt is None:
            return SimReply(UNREACHABLE, None, hop_index)
        if nxt == planned:
            plan_pos += 1
        else:
            plan = self._path_from(nxt, d)
            plan_pos = 0
        node = nxt
        if node == target:
            return self._respond(node, ECHO_REPLY, hop_index, at_time)
    return self._respond(node, TIME_EXCEEDED, ttl, at_time)


# -- the previous event rule, kept verbatim as the oracle's state
# Every event threw away the address map, every tree and every
# route entry (a policy change: every route entry).  The current rule keeps
# what an event does not move; it must give equal replies, counters and
# buckets, and equal round logs.


class ReferenceSimState(SimState):
    """`SimState` with the flush-everything event rule it had before
    events kept the routes they do not move."""

    def _invalidate_routes(self) -> None:
        """Forget every memoized route; ScenarioError if two nodes share an address."""
        # routing is keyed by the address integer, never by IPv4Address
        self._addr_to_node = _address_map(self.addresses, ScenarioError)
        self._parents: dict[str, dict[str, str]] = {}  # BFS parent map per start node
        self._routes: dict[int, tuple] = {}  # route entry per destination (see _route)

    def _apply(self, action) -> None:
        if isinstance(action, RewireLink):
            self._require_node(action.node, "rewire")
            if action.remove is not None:
                if action.remove not in self._adj.get(action.node, []):
                    raise ScenarioError(
                        f"rewire: no link {action.node!r} -> {action.remove!r} to remove"
                    )
                self._adj[action.node].remove(action.remove)
            if action.add is not None:
                self._require_node(action.add, "rewire")
                self._adj[action.node] = self._out_links([*self._adj[action.node], action.add])
        elif isinstance(action, AddIsland):
            for name, (addr, policy) in action.nodes.items():
                if name in self.addresses:
                    raise ScenarioError(f"island node {name!r} already exists")
                self.addresses[name] = addr
                self.policies[name] = policy
                self._adj[name] = []
            for u, v in action.links:
                self._require_node(u, "island link")
                self._require_node(v, "island link")
                self._adj[u] = self._out_links([*self._adj[u], v])
        elif isinstance(action, RemoveNode):
            self._require_node(action.node, "remove_node")
            del self.addresses[action.node]
            del self.policies[action.node]
            self._adj.pop(action.node, None)
            self.balancers.pop(action.node, None)
            for targets in self._adj.values():
                if action.node in targets:
                    targets.remove(action.node)
            for name, balancer in self.balancers.items():
                if isinstance(balancer, dict):
                    self.balancers[name] = {a: n for a, n in balancer.items() if n != action.node}
        elif isinstance(action, ChangePolicy):
            self._require_node(action.node, "change_policy")
            self.policies[action.node] = action.policy
            # a policy moves no path; only the cached prefix replies name it
            self._routes.clear()
            return
        else:
            raise ScenarioError(f"unknown event action {action!r}")
        self._invalidate_routes()


# each response policy as a document writes it, and as an event carries it
POLICY_SPECS = [RESPONSIVE, SILENT, {"rate": 2.0}, {"rate": 0.5, "burst": 2}]
POLICIES = [RESPONSIVE, SILENT, RateLimited(rate=2.0), RateLimited(rate=0.5, burst=2)]
UNKNOWN = IPv4Address("10.60.1.250")  # never a node: unreachable


def _address_of(i: int) -> IPv4Address:
    return IPv4Address(f"10.60.0.{i}")


@st.composite
def sim_documents(draw):
    """Random topologies: up to 8 nodes (n0 the monitor) with any
    policy, a tree of links from the monitor plus random ones, self-links
    and repeated links included, and per-packet or
    per-destination balancers on any node, the monitor and destinations
    included.  Destination tables name nodes and the unknown address.  The
    document is what a JSON topology file holds."""
    count = draw(st.integers(1, 8))
    names = [f"n{i}" for i in range(count)]
    numbers = draw(st.lists(st.integers(1, 60), min_size=count, max_size=count, unique=True))
    nodes = {
        name: {"address": str(_address_of(i)), "policy": draw(st.sampled_from(POLICY_SPECS))}
        for name, i in zip(names, numbers)
    }
    # a random tree from the monitor reaches every node, more links cross it
    links = [(draw(st.sampled_from(names[:i])), names[i]) for i in range(1, count)]
    links += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=2 * count))
    neighbours = {name: sorted({v for u, v in links if u == name}) for name in names}
    targets = [_address_of(i) for i in numbers] + [UNKNOWN]
    balancers = {}
    for name in names:
        if not neighbours[name] or draw(st.integers(0, 3)):
            continue
        if draw(st.booleans()):
            balancers[name] = {"per_packet": draw(st.lists(st.sampled_from(neighbours[name]), min_size=1, max_size=4))}
        else:
            table = draw(st.dictionaries(st.sampled_from(targets), st.sampled_from(neighbours[name]), max_size=4))
            balancers[name] = {"per_destination": {str(a): n for a, n in table.items()}}
    doc = {"monitor": "n0", "nodes": nodes, "links": links, "balancers": balancers}
    return json.loads(json.dumps(doc)), targets


def _draw_event(draw, state: SimState, fresh: list):
    """One valid event against the current state, of any of the four kinds."""
    names = sorted(state.addresses)
    kind = draw(st.sampled_from(["rewire", "add_island", "remove_node", "change_policy"]))
    if kind == "rewire":
        node = draw(st.sampled_from(names))
        remove = draw(st.sampled_from([None, *state._adj.get(node, [])]))
        return RewireLink(node, remove=remove, add=draw(st.sampled_from([None, *names])))
    if kind == "add_island":
        island = {}
        for _ in range(draw(st.integers(1, 2))):
            name = f"i{len(fresh)}"
            fresh.append(name)
            island[name] = (IPv4Address(f"10.61.0.{len(fresh)}"), draw(st.sampled_from(POLICIES)))
        ends = st.sampled_from(names + list(island))
        links = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=4))
        return AddIsland(island, links)
    if kind == "remove_node" and len(names) > 1:
        return RemoveNode(draw(st.sampled_from([n for n in names if n != state.monitor])))
    return ChangePolicy(draw(st.sampled_from(names)), draw(st.sampled_from(POLICIES)))


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(sim_documents(), st.data())
    def test_same_replies_counters_and_buckets(self, generated, data):
        doc, targets = generated
        topology = load_topology(doc)
        state, oracle = SimState(topology), ReferenceSimState(topology)
        monitor = topology.addresses[topology.monitor]
        fresh: list[str] = []
        now = 0.0
        for _ in range(data.draw(st.integers(1, 40))):
            destinations = targets + [IPv4Address(f"10.61.0.{i + 1}") for i in range(len(fresh))] + [monitor]
            step = data.draw(st.integers(0, 5))
            if step == 0:
                action = _draw_event(data.draw, oracle, fresh)
                state._apply(action)
                oracle._apply(action)
                assert state._adj == oracle._adj
                assert state._addr_to_node == oracle._addr_to_node
                continue
            if step == 1:  # every entry built, so that an event has entries to keep
                state.prepare_destinations(destinations)
                continue
            destination = data.draw(st.sampled_from(destinations))
            ttl = data.draw(st.integers(1, 30))
            now += data.draw(st.sampled_from([0.0, 0.1, 0.4, 1.5]))
            assert state.route_probe(destination, ttl, now) == oracle_route_probe(oracle, destination, ttl, now)
            assert state._pp_counters == oracle._pp_counters
            assert state._buckets == oracle._buckets

    @pytest.mark.parametrize("seed", [3001, 3002, 3003])
    def test_inet_round_logs_byte_identical(self, seed):
        inet = perfbench_inet()
        net = inet.generate(seed, 200)  # its default events, before rounds 2, 3, 5 and 6
        topology = load_topology(net.doc)
        config = RadarConfig([IPv4Address(d) for d in net.destinations], inter_round_delay=inet.ROUND_DELAY, rounds=8)

        def round_log(state) -> str:
            transport = SimTransport(topology)
            transport.state = state
            return "".join(
                serialize_round(record.raw, record.index, record.start_time, record.end_time)
                for record in radar_rounds(config, transport)
            )

        assert round_log(SimState(topology)) == round_log(ReferenceSimState(topology))


class TestRebuiltRoutes:
    """An event rebuilds the route entries it moves, and only those:
    counted by a spy on `SimState._route`."""

    @pytest.fixture
    def inet_state(self, monkeypatch):
        inet = perfbench_inet()
        net = inet.generate(3001, 200)
        state = SimState(load_topology(net.doc))
        destinations = [IPv4Address(d) for d in net.destinations]
        rebuilt: list[int] = []
        route = SimState._route

        def spy(self, d):
            rebuilt.append(d)
            return route(self, d)

        monkeypatch.setattr(SimState, "_route", spy)

        def rebuild_after(at_time: float) -> tuple[set[int], dict, dict]:
            """Build every route entry, apply the events due by `at_time` and
            build them again; returns the destinations rebuilt after the
            events, and each destination's plan before and after them."""
            state.prepare_destinations(destinations)
            before = {d: state._routes[d][1] for d in state._routes}
            rebuilt.clear()
            state.apply_events(at_time)
            state.prepare_destinations(destinations)
            return set(rebuilt), before, {d: state._routes[d][1] for d in state._routes}

        return inet, net, state, rebuild_after

    def test_lengthening_rebuilds_the_moved_paths(self, inet_state):
        inet, net, state, rebuild_after = inet_state
        state.apply_events(net.truth.rounds.lengthen * inet.ROUND_DELAY - 2.0)
        rebuilt, before, after = rebuild_after(net.truth.rounds.lengthen * inet.ROUND_DELAY)
        moved = {d for d in after if before[d] != after[d]}
        assert rebuilt == moved == {int(IPv4Address(a)) for a in net.truth.lengthened}
        assert len(after) == 200 > len(rebuilt) > 0

    def test_policy_change_rebuilds_the_paths_through_it(self, inet_state):
        inet, net, state, rebuild_after = inet_state
        policy_node = {str(a): n for n, a in state.addresses.items()}[net.truth.policy_address]
        state.apply_events(net.truth.rounds.policy * inet.ROUND_DELAY - 2.0)
        rebuilt, before, after = rebuild_after(net.truth.rounds.policy * inet.ROUND_DELAY)
        assert before == after
        assert rebuilt == {d for d, plan in before.items() if policy_node in plan}
        assert len(after) == 200 > len(rebuilt) > 0
