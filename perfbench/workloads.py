"""The benchmark's three workloads and the checks that fail a run.

fan      -- the C1 fan: 1000 disjoint chains of depth 10 probed in radar
            rounds.  No two destinations share a (hop, ttl) node, so every
            steady round pays 10,000 probes: per-probe cost in isolation.
inet     -- the seeded Internet-like topology of `inet.py`: shared core,
            balancers, silent and rate-limited routers, planted events.
            The stop set and the distance cache do most of the work.
analyze  -- the read side: a fixed sequence of `netradar analyze` commands,
            run in process over a stored multi-round log.  Nothing is
            probed; the work is parsing, filtering and the analytics.

Each workload runs in one process on one thread.  The loop is closed:
the next operation starts when the previous one ends, and the simulator's
virtual clock removes all waiting, so wall time is CPU time of the program.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from ipaddress import IPv4Address
from pathlib import Path
from random import Random

import inet
from tracing import Tracer

from netradar import analytics, cli
from netradar import radar as radar_module
from netradar.model import RawTraceTree, Star, parse_round_log, serialize_round
from netradar.radar import DatasetWriter, RadarConfig, run_radar
from netradar.simnet import SimState, load_topology
from netradar.transport import SimTransport

ROOT = Path(__file__).resolve().parent.parent
# The metrics each run reports, by name, with units and directions.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUPS = 9  # radar set-ups per run; setup_s is their median
ANALYZE_SETUPS = 3  # analyze set-ups per run
# Every set-up runs in the set-up child.  The first runs before the
# measured loop, the others between its operations and after it.
COLD_STARTS = 5  # interpreter starts per traced run; cli.cold_start_s is their median
# Timings are scaled to a machine on which `reference_work()` takes
# REFERENCE_S seconds, with its time taken REFERENCES times a run, spread
# over the run.  The machine the benchmark was sized on ran it in 0.10 to
# 0.15 s, drifting by up to 40% over minutes; program and reference
# drift together, so the scaled timings hold still.
REFERENCE_S = 0.125
REFERENCES = 15
MAX_TTL = 30  # the radar's default distance, where restart chains begin
SIZES = {
    "fan": {"chains": 1000, "depth": 10, "rounds": 8},
    "inet": {"destinations": 1500, "rounds": 12},
}
ANALYZE_DESTINATIONS, ANALYZE_ROUNDS = 200, 24
ANALYZE_EVENTS = inet.EventRounds(island=10, lengthen=13, cut=16, policy=19)
# A cut of a third of the network stands out of any per-round noise, so
# `analyze peaks` must flag it and only it.
ANALYZE_CUT_SHARE = 0.35


@dataclass
class Result:
    """What a run reports: metrics by name, operations attempted and
    failed, and the reason for every failed correctness check."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, int] = field(default_factory=dict)
    reference_s: float = REFERENCE_S  # median time of reference_work() in the run

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def current_rss_kb() -> int:
    """Resident set size of this process, from its own /proc entry."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def reference_work() -> float:
    """Seconds of a fixed piece of pure-Python work that loads the machine
    as the program does: it builds a tree of 60,000 dicts with parent
    links, indexes it by name and runs full garbage collections over it.
    Objects that exist before it starts are frozen out of its collections,
    and no code of the program runs in it, so neither the heap of the
    process it runs in nor a change to the program moves this time; only
    the machine's speed does."""
    gc.freeze()
    try:
        started = time.perf_counter()
        nodes: list[dict] = []
        for i in range(60_000):
            node = {"id": i, "name": str(i), "kids": []}
            if nodes:
                parent = nodes[i // 2]
                parent["kids"].append(node)
                node["up"] = parent
            nodes.append(node)
        by_name = {node["name"]: node for node in nodes}
        if sum(len(node["kids"]) for node in by_name.values()) != len(nodes) - 1:
            raise AssertionError("reference work built a wrong tree")
        gc.collect()
        del nodes, by_name
        gc.collect()
        return time.perf_counter() - started
    finally:
        gc.unfreeze()


SCALED_UNITS = ("s", "ms", "us")


def scale_timings(result: Result, factor: float) -> None:
    """Multiply every time in `result` by `factor` and divide every rate."""
    for name, (value, unit) in result.metrics.items():
        if unit in SCALED_UNITS:
            result.metrics[name] = (value * factor, unit)
        elif unit == "1/s":
            result.metrics[name] = (value / factor, unit)


@contextlib.contextmanager
def setup_child():
    """Start the run's set-up child (`setup_child.py`) and yield a function
    that sends it one request and returns its answer.  The child ends when
    the block does."""
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("setup_child.py"))],
        cwd=ROOT, env=program_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as proc:

        def ask(request: dict) -> dict:
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            answer = proc.stdout.readline()
            if not answer:
                raise RuntimeError(f"set-up child exited {proc.wait()}")
            return json.loads(answer)

        try:
            yield ask
        finally:
            proc.stdin.close()


class Spread:
    """A measurement repeated between operations, at most once every
    `every` seconds, so that its samples spread over the run: the
    machine's speed drifts over seconds, and samples taken back to back
    all land in one phase of it.  `measure()` returns one sample."""

    def __init__(self, measure, count: int, every: float):
        self.measure = measure
        self.count = count
        self.every = every
        self.values: list[float] = []
        self.last = float("-inf")

    def _take(self) -> None:
        self.values.append(self.measure())
        self.last = time.perf_counter()

    def sample(self) -> None:
        """Take one sample if one is due."""
        if len(self.values) < self.count and time.perf_counter() - self.last >= self.every:
            self._take()

    def median(self) -> float:
        """Take the samples still due, then return their median."""
        while len(self.values) < self.count:
            self._take()
        return median(self.values)


def cold_starts(result: Result, every: float) -> Spread:
    """Wall times of `python -m netradar.cli --help` in a new interpreter."""

    def measure() -> float:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "netradar.cli", "--help"],
            cwd=ROOT, env=program_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120,
        )
        elapsed = time.perf_counter() - started
        result.attempted += 1
        if proc.returncode != 0:
            result.failed += 1
            result.problems.append(f"netradar.cli --help exited {proc.returncode}")
        return elapsed

    return Spread(measure, COLD_STARTS, every)


def import_breakdown_ms() -> dict[str, float]:
    """Self import time of `python -X importtime -m netradar.cli --help`,
    summed by top-level package, in ms."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "netradar.cli", "--help"],
        cwd=ROOT, env=program_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    by_package: Counter = Counter()
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        by_package[fields[2].strip().split(".")[0]] += int(fields[0]) / 1000.0
    return dict(by_package)


def end_to_end(result: Result, setups: Spread, ops, op_records, probes_per_round, round0, ips) -> None:
    """Fill the end-to-end metrics from a run's samples."""
    result.metrics["setup_s"] = (setups.median(), "s")
    result.samples.update(setup_s=len(setups.values), op_s_mean=len(ops), records_per_s=len(ops))
    result.metrics.update(
        op_s_mean=(statistics.fmean(ops), "s"),
        records_per_s=(sum(op_records) / sum(ops), "1/s"),
        probes_per_round=(median(probes_per_round), "count"),
        round0_probes=(float(round0), "count"),
        ips_per_round=(median(ips), "count"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
    )


# -- per-layer counting -------------------------------------------------------

ANALYTICS = (
    "per_round_ip_count",
    "windowed_ip_count",
    "detect_peaks",
    "value_distribution",
    "new_address_components",
    "event_graph",
    "size_vs_discovery_correlation",
)


class LayerCounts:
    """Counts gathered at the traced boundaries while the tracer is on."""

    def __init__(self):
        self.n = Counter()
        self.tracetree_calls: list[tuple] = []

    def install(self, tracer: Tracer) -> None:
        n = self.n

        def on_tracetree(args, kwargs, result):
            self.tracetree_calls.append(
                (args[0], kwargs.get("restart_from"), result.distances, result.stats)
            )

        def on_filter(args, kwargs, result):
            report = result[1]
            n["raw_nodes"] += len(args[0].nodes)
            n["merged_ip_nodes"] += report.merged_ip_nodes
            n["loops_removed"] += report.loops_removed
            n["stars_pruned"] += report.stars_pruned
            n["stars_merged"] += report.stars_merged
            n["leaves_pruned"] += report.leaves_pruned

        def on_serialize(args, kwargs, result):
            n["serialized_lines"] += result.count("\n")
            n["log_bytes"] += len(result)

        def on_parse(args, kwargs, result):
            n["parsed_lines"] += args[0].count("\n")

        def on_from_records(args, kwargs, result):
            n["from_records"] += len(result.records)

        def on_poll(args, kwargs, result):
            n["replies"] += len(result)

        tracer.patch(radar_module, "tracetree", "tracetree", on_tracetree)
        tracer.patch(radar_module, "filter_tree", "filtering.filter_tree", on_filter)
        tracer.patch(radar_module, "serialize_round", "model.serialize_round", on_serialize)
        tracer.patch(cli, "parse_round_log", "model.parse_round_log", on_parse)
        tracer.patch(cli, "filter_tree", "filtering.filter_tree", on_filter)
        tracer.patch(RawTraceTree, "from_records", "model.from_records", on_from_records)
        for method in ("route_probe", "apply_events", "prepare_destinations"):
            tracer.patch(SimState, method, f"simnet.{method}")
        tracer.patch(SimTransport, "send", "transport.send")
        tracer.patch(SimTransport, "poll", "transport.poll", on_poll)
        tracer.patch(SimTransport, "expire", "transport.expire")
        for name in ANALYTICS:
            tracer.patch(analytics, name, f"analytics.{name}")

    def count_rounds(self, dataset) -> None:
        """Fold the records of a finished radar run into the counts, using
        the tracetree calls its rounds made."""
        calls = self.tracetree_calls[-len(dataset.rounds):] if dataset.rounds else []
        n = self.n
        for record, (tasks, restart_from, distances, stats) in zip(dataset.rounds, calls):
            assumed = {t.destination: t.assumed_distance for t in tasks}
            n["probes"] += stats.probes_sent
            n["late_replies"] += stats.late_replies
            n["records"] += len(record.raw.records)
            n["raw_nodes_recorded"] += len(record.raw.nodes)
            for rec in record.raw.records:
                if isinstance(rec.source, Star):
                    n["stars"] += 1
                if rec.ttl == restart_from and assumed[rec.destination] < restart_from:
                    n["restarts"] += 1
            for task in tasks:
                if task.assumed_distance >= restart_from:
                    continue  # not from the cache
                seen = distances[task.destination]
                if seen is None:
                    n["cache_evicted"] += 1
                elif seen == task.assumed_distance:
                    n["cache_exact"] += 1
                elif seen > task.assumed_distance:
                    n["cache_under"] += 1
                else:
                    n["cache_over"] += 1
        self.tracetree_calls.clear()


def layer_metrics(tracer: Tracer, counts: LayerCounts, ops: int, op_time: float) -> dict[str, float]:
    """Per-operation layer metrics from the spans and counts of `ops`
    traced operations that took `op_time` seconds in all."""
    spans = tracer.summary()
    n = counts.n

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    cached = n["cache_exact"] + n["cache_under"] + n["cache_over"] + n["cache_evicted"]
    out = {
        "simnet.route_probe.calls": calls("simnet.route_probe") / ops,
        "simnet.route_probe.us_per_call": 1e6 * ratio(total("simnet.route_probe"), calls("simnet.route_probe")),
        "simnet.apply_events.s": total("simnet.apply_events") / ops,
        "simnet.prepare_destinations.s": total("simnet.prepare_destinations") / ops,
        "transport.send.calls": calls("transport.send") / ops,
        "transport.send.self_us_per_call": 1e6 * ratio(own("transport.send"), calls("transport.send")),
        "transport.poll.calls": calls("transport.poll") / ops,
        "transport.poll.self_us_per_call": 1e6 * ratio(own("transport.poll"), calls("transport.poll")),
        "transport.replies_per_poll": ratio(n["replies"], calls("transport.poll")),
        "transport.unanswered": n["unanswered"] / ops,
        "transport.late": n["late"] / ops,
        "transport.backpressure": n["backpressure"] / ops,
        "transport.expired_outstanding": (calls("transport.expire") - n["late"]) / ops,
        "tracetree.s": total("tracetree") / ops,
        "tracetree.self_s": own("tracetree") / ops,
        "tracetree.probes": n["probes"] / ops,
        "tracetree.stars": n["stars"] / ops,
        "tracetree.restarts": n["restarts"] / ops,
        "tracetree.late_replies": n["late_replies"] / ops,
        "tracetree.novel_ratio": ratio(n["raw_nodes_recorded"], n["records"]),
        "model.from_records.s": total("model.from_records") / ops,
        "model.from_records.records_per_s": ratio(n["from_records"], total("model.from_records")),
        "model.serialize_round.s": total("model.serialize_round") / ops,
        "model.serialize_round.lines_per_s": ratio(n["serialized_lines"], total("model.serialize_round")),
        "model.log_bytes_per_round": n["log_bytes"] / ops,
        "model.parse_round_log.s": total("model.parse_round_log") / ops,
        "model.parse_round_log.lines_per_s": ratio(n["parsed_lines"], total("model.parse_round_log")),
        "filtering.filter_tree.s": total("filtering.filter_tree") / ops,
        "filtering.filter_tree.raw_nodes_per_s": ratio(n["raw_nodes"], total("filtering.filter_tree")),
        "filtering.merged_ip_nodes": n["merged_ip_nodes"] / ops,
        "filtering.loops_removed": n["loops_removed"] / ops,
        "filtering.stars_pruned": n["stars_pruned"] / ops,
        "filtering.stars_merged": n["stars_merged"] / ops,
        "filtering.leaves_pruned": n["leaves_pruned"] / ops,
        "radar.cache_exact": n["cache_exact"] / ops,
        "radar.cache_under": n["cache_under"] / ops,
        "radar.cache_over": n["cache_over"] / ops,
        "radar.cache_evicted": n["cache_evicted"] / ops,
        "radar.cache_exact_ratio": ratio(n["cache_exact"], cached),
        "trace.spans_per_op": len(tracer) / ops,
    }
    for name in ANALYTICS:
        out[f"analytics.{name}.s"] = total(f"analytics.{name}") / ops
    if calls("tracetree"):
        inside = total("tracetree") + total("filtering.filter_tree") + total("model.serialize_round")
        out["radar.overhead_s"] = (op_time - inside) / ops
    return out


# -- radar workloads: fan and inet --------------------------------------------


@dataclass
class RadarInputs:
    doc: dict
    destinations: list[IPv4Address]
    rounds: int
    addresses: frozenset[str]
    truth: inet.GroundTruth | None = None


def fan_inputs(seed: int, chains: int, depth: int, rounds: int) -> RadarInputs:
    """Disjoint chains from the monitor, at seeded addresses; the
    destination list comes in a seeded order."""
    rng = Random(seed)
    pool = rng.sample(range(inet.BASE_ADDRESS + 1, inet.BASE_ADDRESS + (1 << 22)), chains * depth + 1)
    address = iter(str(IPv4Address(a)) for a in pool)
    nodes = {"mon": next(address)}
    links = []
    destinations = []
    for c in range(chains):
        previous = "mon"
        for d in range(depth):
            name = f"n{c}_{d}"
            nodes[name] = next(address)
            links.append([previous, name])
            previous = name
        destinations.append(IPv4Address(nodes[previous]))
    rng.shuffle(destinations)
    doc = {"monitor": "mon", "nodes": nodes, "links": links}
    return RadarInputs(doc, destinations, rounds, frozenset(nodes.values()))


def inet_inputs(seed: int, destinations: int, rounds: int) -> RadarInputs:
    net = inet.generate(seed, destinations)
    return RadarInputs(
        net.doc, [IPv4Address(d) for d in net.destinations], rounds, net.addresses, net.truth
    )


MAKE = {"fan": fan_inputs, "inet": inet_inputs}


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def timed_set_up(workload: str, seed: int, sizes: dict) -> dict:
    """Build and load the inputs of a radar workload; run in the set-up
    child (`setup_child.py`)."""
    started = time.perf_counter()
    inputs = MAKE[workload](seed, **sizes)
    load_topology(inputs.doc)
    return {"setup_s": time.perf_counter() - started, "digest": digest(inputs.doc)}


class RoundSink:
    """Writes each round through DatasetWriter, marks the wall time and
    resident memory at the round boundary, then runs `on_round(record)`,
    whose time counts in neither round."""

    def __init__(self, writer: DatasetWriter, on_round=None):
        self.writer = writer
        self.ends: list[float] = []
        self.resumes: list[float] = []
        self.rss_kb: list[int] = []
        self.on_round = on_round

    def write(self, record) -> None:
        self.writer.write(record)
        self.ends.append(time.perf_counter())
        self.rss_kb.append(current_rss_kb())
        if self.on_round is not None:
            self.on_round(record)
        self.resumes.append(time.perf_counter())


def radar_episode(topology, inputs: RadarInputs, log_path: Path, rounds: int | None = None, on_round=None):
    """One radar run of `rounds` rounds on a fresh transport, written to
    log_path.  Returns the dataset, the transport, the per-round wall
    times, the resident memory at each round boundary and the seconds
    spent in `on_round`."""
    transport = SimTransport(topology)
    config = RadarConfig(
        destinations=inputs.destinations,
        inter_round_delay=inet.ROUND_DELAY,
        rounds=rounds if rounds is not None else inputs.rounds,
    )
    with DatasetWriter(log_path) as writer:
        sink = RoundSink(writer, on_round)
        started = time.perf_counter()
        dataset = run_radar(config, transport, sink)
    starts = [started] + sink.resumes[:-1]
    durations = [end - start for start, end in zip(starts, sink.ends)]
    paused = sum(resume - end for end, resume in zip(sink.ends, sink.resumes))
    return dataset, transport, durations, sink.rss_kb, paused


def check_fan(result: Result, inputs: RadarInputs, dataset, log_path: Path, first: bool) -> None:
    chains = len(inputs.destinations)
    per_round = len(inputs.doc["nodes"]) - 1
    for record in dataset.rounds:
        expected = chains * MAX_TTL if record.index == 0 else per_round
        where = f"fan round {record.index}"
        result.check(record.complete, f"{where}: incomplete")
        result.check(record.probes_sent == expected, f"{where}: {record.probes_sent} probes, expected {expected}")
        result.check(record.probes_sent == len(record.raw.records), f"{where}: probes != records")
        ips = {str(a) for a in record.tree.observed_ips()}
        result.check(len(ips) == per_round, f"{where}: wrong distinct address count")
        result.check(ips <= inputs.addresses, f"{where}: observed addresses outside the topology")
        try:
            record.tree.validate()
        except ValueError as exc:
            result.problems.append(f"{where}: invalid tree: {exc}")


def check_inet(result: Result, inputs: RadarInputs, dataset, log_path: Path, first: bool) -> None:
    truth = inputs.truth
    by_index = {r.index: r for r in dataset.rounds}
    ips = {i: {str(a) for a in r.tree.observed_ips()} for i, r in by_index.items()}
    for index, record in by_index.items():
        where = f"inet round {index}"
        result.check(record.complete, f"{where}: incomplete")
        result.check(record.probes_sent == len(record.raw.records), f"{where}: probes != records")
        result.check(ips[index] <= inputs.addresses, f"{where}: observed addresses outside the topology")
        try:
            record.tree.validate()
        except ValueError as exc:
            result.problems.append(f"{where}: invalid tree: {exc}")
    rounds = truth.rounds
    island = set(truth.island)
    result.check(
        all(not ips[i] & island for i in by_index if i < rounds.island)
        and all(island <= ips[i] for i in by_index if i >= rounds.island),
        "inet: the island is not seen exactly from its graft round",
    )
    lengthened = {IPv4Address(a) for a in truth.lengthened}
    restarted = {
        r.destination for r in by_index[rounds.lengthen].raw.records if r.ttl == MAX_TTL
    }
    result.check(lengthened <= restarted, "inet: the lengthened paths fired no restart chain")
    chain = set(truth.lengthen_chain)
    result.check(
        not ips[rounds.lengthen - 1] & chain and chain <= ips[rounds.lengthen],
        "inet: the lengthened path is not seen from its round",
    )
    result.check(
        not ips[rounds.cut] & set(truth.cut) and len(ips[rounds.cut]) < len(ips[rounds.cut - 1]),
        "inet: the cut did not remove its subtree for one round",
    )
    result.check(
        truth.policy_address not in ips[rounds.policy - 1] and truth.policy_address in ips[rounds.policy],
        "inet: the policy change is not seen at its round",
    )
    if first:
        check_log_round_trip(result, log_path)


def check_log_round_trip(result: Result, log_path: Path) -> None:
    """The written log re-parses and re-serializes byte-exact, block by
    block."""
    text = log_path.read_text(encoding="utf-8")
    blocks = [b + "#end\n" for b in text.split("#end\n")[:-1]]
    result.check("".join(blocks) == text, "log: trailing content after the last #end")
    for block in blocks:
        [(meta, raw)] = parse_round_log(block)
        again = serialize_round(raw, meta.index, meta.start_time, meta.end_time)
        if again != block:
            result.problems.append(f"log: round {meta.index} does not re-serialize byte-exact")


CHECK = {"fan": check_fan, "inet": check_inet}


def run_radar_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, ask, reference) -> Result:
    check = CHECK[name]
    result = Result()
    inputs = MAKE[name](seed, **SIZES[name])
    topology = load_topology(inputs.doc)
    expected_digest = digest(inputs.doc)

    def set_up() -> float:
        report = ask({"workload": name, "seed": seed, "sizes": SIZES[name]})
        result.check(report["digest"] == expected_digest, f"{name}: set-up is not deterministic")
        return report["setup_s"]

    setups = Spread(set_up, SETUPS, seconds / SETUPS)
    setups.sample()
    log_path = workdir / f"{name}.log"

    steady, steady_probes, steady_ips, round0, round0_times = [], [], [], [], []
    rss_growth = []

    def episodes(budget: float, counts: LayerCounts | None = None, between=None):
        """Run whole radar episodes while the next one should end within
        `budget` seconds (and at least one); returns the rounds run and
        their seconds.  `between()` runs after each round, outside the
        round's time and the budget."""
        deadline = time.perf_counter() + budget
        rounds_run, spent, last = 0, 0.0, 0.0
        while rounds_run == 0 or time.perf_counter() + last < deadline:
            first = not round0
            # start each episode as a new radar run starts, without the last
            # episode's garbage; no collection is forced inside an episode
            collecting = time.perf_counter()
            gc.collect()
            deadline += time.perf_counter() - collecting
            on_round = None if between is None else lambda record: between()
            dataset, transport, durations, rss, paused = radar_episode(topology, inputs, log_path, on_round=on_round)
            deadline += paused
            result.attempted += len(dataset.rounds)
            result.failed += sum(1 for r in dataset.rounds if not r.complete)
            result.check(len(dataset.rounds) == inputs.rounds, f"{name}: run stopped early")
            for record, duration in zip(dataset.rounds, durations):
                if record.index == 0:
                    round0.append(record.probes_sent)
                    round0_times.append(duration)
                else:
                    steady.append(duration)
                    steady_probes.append(record.probes_sent)
                    steady_ips.append(len(record.tree.observed_ips()))
            if first and len(rss) > 2:
                rss_growth.append((rss[-1] - rss[1]) / (len(rss) - 2))
            if counts is not None:
                counts.count_rounds(dataset)
                stats = transport.stats
                counts.n["unanswered"] += stats.unanswered
                counts.n["late"] += stats.late
                counts.n["backpressure"] += stats.backpressure_events
            check(result, inputs, dataset, log_path, first)
            rounds_run += len(dataset.rounds)
            last = sum(durations)
            spent += last
            del dataset, transport  # free this episode's rounds before the next one
        return rounds_run, spent

    if not trace:
        episodes(seconds, between=lambda: (setups.sample(), reference()))
        end_to_end(result, setups, steady, steady_probes, steady_probes, round0[0], steady_ips)
        return result

    # traced run: untraced episodes for the overhead baseline and the cold
    # starts, then traced ones
    cold = cold_starts(result, seconds / 2 / COLD_STARTS)
    cold.sample()
    episodes(seconds / 2, between=lambda: (cold.sample(), reference()))
    cold_start_s = cold.median()
    untraced_op = statistics.fmean(steady)
    steady.clear()
    round0_times.clear()
    counts = LayerCounts()
    tracer = Tracer()
    with tracer.installed(counts.install):
        ops, op_time = episodes(seconds / 2, counts)
    layers = layer_metrics(tracer, counts, ops, op_time)
    layers["radar.round0_s"] = median(round0_times)
    layers["trace.overhead_pct"] = 100.0 * (statistics.fmean(steady) / untraced_op - 1.0)
    layers["radar.rss_growth_kb_per_round"] = median(rss_growth)
    layers["radar.retained_kb_per_round"] = retained_kb_per_round(topology, inputs, log_path)
    layers["cli.cold_start_s"] = cold_start_s
    tracer.write(workdir / f"spans-{name}.tsv")
    del tracer
    finish_layers(result, layers)
    return result


def retained_kb_per_round(topology, inputs: RadarInputs, log_path: Path) -> float:
    """Python memory allocated during round 1 of a fresh run and still
    held when it ends, by tracemalloc, which is off for round 0."""
    retained = []

    def on_round(record):
        if record.index == 0:
            tracemalloc.start()
        else:
            retained.append(tracemalloc.get_traced_memory()[0] / 1024.0)
            tracemalloc.stop()

    radar_episode(topology, inputs, log_path, rounds=2, on_round=on_round)
    return retained[0]


def finish_layers(result: Result, layers: dict[str, float]) -> None:
    imports = import_breakdown_ms()
    for package in ("scipy", "numpy", "yaml", "netradar"):
        layers[f"cli.import.{package}_ms"] = imports.get(package, 0.0)
    layers["failed_ratio"] = result.failed / result.attempted if result.attempted else 0.0
    for metric in SPEC["per_layer"]:
        result.metrics[metric["name"]] = (float(layers.get(metric["name"], 0.0)), metric["unit"])


# -- analyze ------------------------------------------------------------------


def analyze_commands(monitor: str, log: Path, out: Path) -> list[tuple[str, list[str]]]:
    events = ANALYZE_EVENTS
    ranges = ["--ref", f"0:{events.island}", "--obs", f"{events.island}:{ANALYZE_ROUNDS}"]
    common = ["--in", str(log), "--out", str(out), "--monitor", monitor]
    ops = [
        ("counts", []),
        ("window", ["--window", "4"]),
        ("peaks", ["--window", "1", "--direction", "down"]),
        ("distribution", ["--window", "1"]),
        ("components", ranges),
        ("event-graph", ["--round", str(events.island), "--before", str(events.island)]),
        ("correlate", ranges),
    ]
    return [(op, ["analyze", op, *args, *common]) for op, args in ops]


def expected_outputs(dataset) -> dict[str, object]:
    """What each analyze command must print, from the in-memory dataset."""
    events = ANALYZE_EVENTS
    per_round = analytics.per_round_ip_count(dataset)
    reference, observation = (0, events.island), (events.island, ANALYZE_ROUNDS)
    components = analytics.new_address_components(dataset, reference, observation)
    return {
        "counts": analytics.series_to_csv(per_round, "distinct_ips"),
        "window": analytics.series_to_csv(analytics.windowed_ip_count(dataset, window=4), "distinct_ips_w4"),
        "peaks": analytics.detect_peaks(per_round, direction="down").indices,
        "distribution": analytics.histogram_to_csv(
            analytics.value_distribution(per_round), "distinct_ips", "rounds"
        ),
        "components": analytics.components_to_csv(components),
        "event-graph": analytics.event_graph(dataset, events.island, before_window=events.island).to_dot(),
        "correlate": analytics.correlation_to_csv(*analytics.size_vs_discovery_correlation(components)),
    }


def write_analyze_log(seed: int, outdir: Path) -> dict:
    """Set-up of the analyze workload, run in the set-up child: write the
    multi-round log into `outdir` and return the expected command outputs
    with the log's ground truth."""
    started = time.perf_counter()
    net = inet.generate(seed, ANALYZE_DESTINATIONS, ANALYZE_EVENTS, ANALYZE_CUT_SHARE)
    inputs = RadarInputs(
        net.doc, [IPv4Address(d) for d in net.destinations], ANALYZE_ROUNDS, net.addresses, net.truth
    )
    dataset = radar_episode(load_topology(net.doc), inputs, outdir / "analyze.log")[0]
    expected = expected_outputs(dataset)
    setup_s = time.perf_counter() - started
    problems = []
    graph = analytics.event_graph(dataset, ANALYZE_EVENTS.island, before_window=ANALYZE_EVENTS.island)
    island_edges = {tuple(sorted((IPv4Address(a), IPv4Address(b)))) for a, b in net.truth.island_edges}
    if not island_edges <= graph.new_edges:
        problems.append("analyze set-up: the event graph misses the island's edges")
    if not all(r.complete for r in dataset.rounds):
        problems.append("analyze set-up: incomplete rounds in the log")
    info = {
        "setup_s": setup_s,
        "monitor": net.monitor_address,
        "island": sorted(net.truth.island),
        "cut_round": ANALYZE_EVENTS.cut,
        "island_round": ANALYZE_EVENTS.island,
        "records_per_round": [len(r.raw.records) for r in dataset.rounds],
        "ips_per_round": [count for _, count in analytics.per_round_ip_count(dataset)],
        "expected": expected,
        "problems": problems,
    }
    return info


def run_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def check_output(result: Result, op: str, text: str, info: dict) -> None:
    expected = info["expected"][op]
    if op == "peaks":
        lines = text.splitlines()
        got = [int(x) for x in lines[lines.index("round") + 1:]] if "round" in lines else None
        result.check(got == expected, f"analyze peaks: {got} != in-memory {expected}")
        result.check(got == [info["cut_round"]], f"analyze peaks: the cut round {info['cut_round']} is not the only dip")
        return
    result.check(text == expected, f"analyze {op}: output differs from the in-memory analytics")
    if op == "components":
        island = "|".join(sorted(info["island"], key=IPv4Address))
        row = f"{len(info['island'])},{info['island_round']},{info['island_round']},1,{island}"
        result.check(row in text.splitlines(), "analyze components: the island is not found")


def run_analyze(seed: int, seconds: float, trace: bool, workdir: Path, ask, reference) -> Result:
    result = Result()
    log = workdir / "analyze-setup" / "analyze.log"
    info = None

    def set_up() -> float:
        nonlocal info
        outdir = workdir / ("analyze-setup" if info is None else "analyze-setup-again")
        outdir.mkdir(parents=True, exist_ok=True)
        again = ask({"workload": "analyze", "seed": seed, "outdir": str(outdir)})
        result.problems.extend(again["problems"])
        if info is None:
            info = again
        else:
            same = (outdir / "analyze.log").read_bytes() == log.read_bytes()
            result.check(same, "analyze: set-up is not deterministic")
        return again["setup_s"]

    setups = Spread(set_up, ANALYZE_SETUPS, seconds / ANALYZE_SETUPS)
    setups.sample()
    sizes = info["records_per_round"]
    out = workdir / "analyze.out"
    commands = analyze_commands(info["monitor"], log, out)

    ops: list[float] = []

    def sequences(budget: float, between=None) -> tuple[int, float]:
        """Run the command sequence while the next one should end within
        `budget` seconds (and at least once); returns the commands run and
        their seconds.  `between()` runs after each command, outside the
        budget."""
        deadline = time.perf_counter() + budget
        count, spent, last = 0, 0.0, 0.0
        while count == 0 or time.perf_counter() + last < deadline:
            last = 0.0
            for op, argv in commands:
                # start each command as a new process starts, without the
                # last command's garbage
                collecting = time.perf_counter()
                gc.collect()
                deadline += time.perf_counter() - collecting
                started = time.perf_counter()
                code = run_cli(argv)
                elapsed = time.perf_counter() - started
                ops.append(elapsed)
                result.attempted += 1
                if code != 0:
                    result.failed += 1
                    result.problems.append(f"analyze {op}: exit {code}")
                else:
                    check_output(result, op, out.read_text(encoding="utf-8"), info)
                count += 1
                spent += elapsed
                last += elapsed
                if between is not None:
                    paused = time.perf_counter()
                    between()
                    deadline += time.perf_counter() - paused
        return count, spent

    if not trace:
        sequences(seconds, between=lambda: (setups.sample(), reference()))
        end_to_end(result, setups, ops, [sum(sizes)] * len(ops), sizes[1:], sizes[0], info["ips_per_round"][1:])
        return result

    cold = cold_starts(result, seconds / 2 / COLD_STARTS)
    cold.sample()
    sequences(seconds / 2, between=lambda: (cold.sample(), reference()))
    cold_start_s = cold.median()
    untraced_op = statistics.fmean(ops)
    ops.clear()
    counts = LayerCounts()
    tracer = Tracer()
    with tracer.installed(counts.install):
        n_ops, op_time = sequences(seconds / 2)
    layers = layer_metrics(tracer, counts, n_ops, op_time)
    spans = tracer.summary()
    load = sum(spans.get(name, (0, 0.0, 0.0))[1] for name in ("model.parse_round_log", "filtering.filter_tree"))
    layers["cli.load_s"] = load / n_ops
    layers["cli.cold_start_s"] = cold_start_s
    layers["trace.overhead_pct"] = 100.0 * (statistics.fmean(ops) / untraced_op - 1.0)
    tracer.write(workdir / "spans-analyze.tsv")
    finish_layers(result, layers)
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    workdir.mkdir(parents=True, exist_ok=True)
    with setup_child() as ask:
        references = Spread(lambda: ask({"workload": "reference"})["reference_s"], REFERENCES, seconds / REFERENCES)
        references.sample()
        if workload == "analyze":
            result = run_analyze(seed, seconds, trace, workdir, ask, references.sample)
        else:
            result = run_radar_workload(workload, seed, seconds, trace, workdir, ask, references.sample)
        result.reference_s = references.median()
    scale_timings(result, REFERENCE_S / result.reference_s)
    return result
