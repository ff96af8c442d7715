"""Seeded Internet-like topology and event generator.

The topology is a shared tree-like core seen from one monitor: routers in
levels of growing width, each attached to a random router of the level
above, and destinations hanging off routers of levels 4 to 11 (so they sit
5 to 12 hops away).  On top of the tree it adds

- twin routers behind per-packet and per-destination load balancers,
- a few percent of silent and of rate-limited routers,
- four planted events, each in its own subtree:
  an island graft, a path lengthening, a link cut and a policy change.

`generate` returns the `load_topology` document, the destination list and
the planted ground truth, which the benchmark checks the radar's output
against.  The same seed gives the same document.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from ipaddress import IPv4Address

# Virtual seconds between round starts.  Longer than any round, so round k
# starts at exactly k * ROUND_DELAY and events land between rounds.
ROUND_DELAY = 3600.0

# Router count per level (level 1 is the monitor's access router), for
# 3000 destinations.  Other sizes scale the levels, keeping at least
# MIN_WIDTH routers on each level below the first, so that small topologies
# still have disjoint subtrees for the planted events.
MIN_WIDTH = 4
LEVEL_WIDTHS = (1, 4, 12, 30, 70, 150, 300, 500, 700, 900, 1000)
FIRST_DESTINATION_LEVEL = 4
ISLAND_SIZE = 6
SILENT_SHARE = 0.03
RATE_LIMITED_SHARE = 0.02
BALANCED_SHARE = 0.01  # of routers, for each balancer kind
# A balancer, or a silent, rate-limited or policy-changed router, sits
# above at most this share of the destinations.  Without a cap, a seed
# that puts one of them near the root changes the cost of every round, and
# round times move by 20% from seed to seed.
POLICY_SHARE_CAP = 0.01
RATE_LIMIT = {"rate": 0.5, "burst": 2}
BASE_ADDRESS = int(IPv4Address("10.0.0.0"))


@dataclass(frozen=True)
class EventRounds:
    """The round before which each planted event takes effect."""

    island: int
    lengthen: int
    cut: int
    policy: int


@dataclass
class GroundTruth:
    rounds: EventRounds
    island: list[str]  # addresses grafted in, in path order
    island_edges: list[tuple[str, str]]  # (upper, lower) address pairs of the graft
    lengthened: list[str]  # destinations whose distance grows by 2
    lengthen_chain: list[str]  # idle routers the lengthened path moves onto
    cut: list[str]  # destinations unreachable during the cut round
    policy_address: str  # silent router that starts answering


@dataclass
class Internet:
    doc: dict
    destinations: list[str]
    monitor_address: str
    addresses: frozenset[str]  # every address the topology ever holds
    truth: GroundTruth


def generate(
    seed: int, destinations: int = 3000, rounds: EventRounds | None = None, cut_share: float = 0.15
) -> Internet:
    """Build the topology for `seed`; see the module docstring.  The link
    cut takes out the subtree of levels 2 to 5 whose share of the
    destinations is closest to `cut_share`."""
    rounds = rounds if rounds is not None else EventRounds(island=2, lengthen=3, cut=5, policy=6)
    rng = random.Random(seed)
    scale = destinations / 3000
    widths = [1] + [max(MIN_WIDTH, round(w * scale)) for w in LEVEL_WIDTHS[1:]]

    parent: dict[str, str] = {}
    children: dict[str, list[str]] = {"m": []}
    level_of: dict[str, int] = {}
    levels: list[list[str]] = [["m"]]

    def attach(name: str, up: str) -> None:
        parent[name] = up
        children[up].append(name)
        children.setdefault(name, [])

    for level, width in enumerate(widths, start=1):
        names = [f"r{level}_{i}" for i in range(width)]
        for name in names:
            attach(name, rng.choice(levels[level - 1]))
            level_of[name] = level
        levels.append(names)

    hosts = [f"h{i}" for i in range(destinations)]
    candidate_levels = list(range(FIRST_DESTINATION_LEVEL, len(widths) + 1))
    weights = [widths[lv - 1] for lv in candidate_levels]
    for host in hosts:
        level = rng.choices(candidate_levels, weights)[0]
        attach(host, rng.choice(levels[level]))
        level_of[host] = level + 1

    def subtree_hosts(node: str) -> list[str]:
        out, stack = [], [node]
        while stack:
            n = stack.pop()
            if n.startswith("h"):
                out.append(n)
            stack.extend(children[n])
        return out

    def ancestors(node: str) -> set[str]:
        out = set()
        while node in parent:
            node = parent[node]
            out.add(node)
        return out

    # -- planted events, each in a subtree of its own -------------------------

    def claim(node: str) -> None:
        # the node's subtree and its path to the monitor are off limits to
        # later events, balancers and response policies
        blocked.update(ancestors(node))
        stack = [node]
        while stack:
            n = stack.pop()
            blocked.add(n)
            stack.extend(children[n])

    def pick(candidates) -> str:
        free = sorted(c for c in candidates if c not in blocked)
        if not free:
            raise ValueError("topology too small for the planted events")
        return rng.choice(free)

    routers = sorted(n for n in level_of if not n.startswith("h"))
    host_count = {n: len(subtree_hosts(n)) for n in routers}
    cap = max(MIN_WIDTH, round(POLICY_SHARE_CAP * destinations))
    small = {n for n in routers if 0 < host_count[n] <= cap}
    blocked: set[str] = set()
    cut_child = min(
        (n for lv in levels[2:6] for n in lv),
        key=lambda n: (abs(host_count[n] / destinations - cut_share), n),
    )
    cut_parent = parent[cut_child]
    claim(cut_child)

    island_host = pick(h for h in hosts if level_of[h] >= 7)
    island_parent = parent[island_host]
    claim(island_parent)

    lengthen_root = pick(n for n in routers if 5 <= level_of[n] <= 8 and 2 <= host_count[n] <= 40)
    lengthen_parent = parent[lengthen_root]
    claim(lengthen_root)
    chain = ["l1", "l2"]
    children["l1"], children["l2"] = ["l2"], [lengthen_root]
    children[lengthen_parent].append("l1")

    policy_router = pick(n for n in small if 4 <= level_of[n] <= 8)
    claim(policy_router)

    # -- balancers: a twin of C behind a split P that has C as its only child --

    links: list[tuple[str, str]] = []
    for up, downs in children.items():
        links.extend((up, d) for d in downs)
    balancers: dict[str, dict] = {}
    twin_count = 0
    splits = [
        n for n in routers
        if n in small and n not in blocked and level_of[n] <= 9
        and len(children[n]) == 1 and not children[n][0].startswith("h")
    ]
    rng.shuffle(splits)
    router_count = sum(widths)
    per_kind = max(1, round(BALANCED_SHARE * router_count))
    for i, split in enumerate(splits[: 2 * per_kind]):
        child = children[split][0]
        twin = f"t{twin_count}"
        twin_count += 1
        links.append((split, twin))
        links.extend((twin, grandchild) for grandchild in children[child])
        if i % 2 == 0:
            pair = [child, twin]
            rng.shuffle(pair)
            balancers[split] = {"per_packet": pair}
        else:
            balancers[split] = {"per_destination": {h: rng.choice((child, twin)) for h in subtree_hosts(child)}}

    plain = [n for n in routers if n in small and n not in blocked and n not in balancers and level_of[n] >= 2]
    rng.shuffle(plain)
    n_silent = round(SILENT_SHARE * router_count)
    n_limited = round(RATE_LIMITED_SHARE * router_count)
    silent = set(plain[:n_silent]) | {policy_router}
    limited = set(plain[n_silent : n_silent + n_limited])

    # -- addresses: one random pool, drawn in a seeded order -------------------

    island = [f"x{i}" for i in range(1, ISLAND_SIZE + 1)]
    names = ["m"] + routers + [f"t{i}" for i in range(twin_count)] + chain + hosts + island
    pool = rng.sample(range(BASE_ADDRESS + 1, BASE_ADDRESS + (1 << 22)), len(names))
    address = {name: str(IPv4Address(a)) for name, a in zip(names, pool)}

    def node_spec(name: str):
        if name in silent:
            return {"address": address[name], "policy": "silent"}
        if name in limited:
            return {"address": address[name], "policy": dict(RATE_LIMIT)}
        return address[name]

    for split, spec in balancers.items():
        if "per_destination" in spec:
            spec["per_destination"] = {address[h]: n for h, n in spec["per_destination"].items()}

    def at(round_index: int, offset: float = -1.0) -> float:
        return round_index * ROUND_DELAY + offset

    events = [
        {
            "at": at(rounds.island),
            "add_island": {
                "nodes": {x: address[x] for x in island},
                "links": [[a, b] for a, b in zip([island_parent] + island, island + [island_host])],
            },
        },
        {"at": at(rounds.island), "rewire": {"node": island_parent, "remove": island_host}},
        {"at": at(rounds.lengthen), "rewire": {"node": lengthen_parent, "remove": lengthen_root}},
        {"at": at(rounds.cut), "rewire": {"node": cut_parent, "remove": cut_child}},
        {"at": at(rounds.cut, ROUND_DELAY / 2), "rewire": {"node": cut_parent, "add": cut_child}},
        {"at": at(rounds.policy), "change_policy": {"node": policy_router, "policy": "responsive"}},
    ]
    doc = {
        "monitor": "m",
        "nodes": {name: node_spec(name) for name in names if name not in island},
        "links": [list(link) for link in links],
        "balancers": balancers,
        "events": events,
    }
    island_path = [island_parent] + island + [island_host]
    truth = GroundTruth(
        rounds=rounds,
        island=[address[x] for x in island],
        island_edges=[(address[a], address[b]) for a, b in zip(island_path, island_path[1:])],
        lengthened=sorted(address[h] for h in subtree_hosts(lengthen_root)),
        lengthen_chain=[address[c] for c in chain],
        cut=sorted(address[h] for h in subtree_hosts(cut_child)),
        policy_address=address[policy_router],
    )
    return Internet(
        doc=doc,
        destinations=[address[h] for h in hosts],
        monitor_address=address["m"],
        addresses=frozenset(address.values()),
        truth=truth,
    )
