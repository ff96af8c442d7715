"""Command-line interface: measurement, simulation, and analysis
subcommands emitting round logs, CSV, and DOT.

Each `analyze` operation takes --in, --out and --monitor, plus only the
flags it reads: counts none; window --window --mode; peaks --window
--direction --k; distribution --window --bin-width; components --ref
--obs --dot; event-graph --round --before; correlate --ref --obs.

Exit codes: 0 success, 1 usage error, 2 runtime or transport fault,
3 validation error: a bad, missing or unreadable input file, or a bad
parameter, such as an --out inside a missing directory.  A log's torn
final round, what a crash while writing leaves, is skipped with a note;
`model.parse_round_log` decides what is torn.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import closing, nullcontext
from math import isfinite
from pathlib import Path

from . import analytics, baseline
from .filtering import filter_tree
from .model import (
    MAX_TTL_DEFAULT,
    Ip,
    RadarDataset,
    RoundRecord,
    TornRoundError,
    numbered_lines,
    parse_address,
    parse_round_log,
    read_ttl,
    serialize_round,
)
from .radar import (
    DEFAULT_INTER_ROUND_DELAY,
    DatasetWriter,
    RadarConfig,
    load_destinations,
    radar_rounds,
)
from .simnet import ScenarioError, SimState, TopologyError, load_topology
from .tracetree import DEFAULT_TIMEOUT, TracetreeConfig
from .transport import DEFAULT_PER_HOP_DELAY, DEFAULT_RATE_CAP, SimTransport, TransportError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VALIDATION = 3

PLACEHOLDER_MONITOR = Ip(parse_address("0.0.0.0"))  # round logs do not carry the monitor


class _Parser(argparse.ArgumentParser):
    # the documented usage-error exit code is 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # every (sub)command refuses the arguments it does not know, so the
        # usage shown is that of the command given, not the top level's
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _make_transport(spec: str, per_hop_delay: float, rate_cap: float):
    """The transport `spec` names; the caller closes it."""
    if spec.startswith("sim:"):
        topology = load_topology(spec[len("sim:") :])
        return SimTransport(topology, per_hop_delay=per_hop_delay, rate_cap=rate_cap)
    if spec == "icmp":
        from .icmp import IcmpTransport

        return IcmpTransport(rate_cap=rate_cap)
    raise TopologyError(f"unknown transport {spec!r}; use sim:TOPOLOGY_FILE or icmp")


def _output(out: str | None):
    """The file `out` names, opened (truncated) for writing, or stdout.  A
    measurement opens it before its first probe, as radar run opens its
    writer, so an --out it cannot write costs no probe."""
    return open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout)


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _read_rounds(path: str) -> list:
    """The rounds of the log at `path`, read as written: no newline
    translation, so the parser sees every line end.  A torn final round
    is skipped with a note.  An error names the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        return parse_round_log(text)
    except TornRoundError as exc:
        print(f"netradar: {path}: line {exc.line_no}: torn final round ignored", file=sys.stderr)
        return exc.rounds
    except ValueError as exc:  # bytes that are not UTF-8, or not a round log
        raise ValueError(f"{path}: {exc}") from None


def _load_dataset(path: str, monitor: str | None) -> RadarDataset:
    try:
        root = PLACEHOLDER_MONITOR if monitor is None else Ip(parse_address(monitor))
    except ValueError:
        raise ValueError(f"bad --monitor address {monitor!r}") from None
    rounds = [
        RoundRecord(meta.index, meta.start_time, meta.end_time, len(raw.keys), filter_tree(raw, root)[0])
        for meta, raw in _read_rounds(path)
    ]
    return RadarDataset(rounds)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        start, stop = text.split(":")
        return int(start), int(stop)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad round range {text!r}, expected START:STOP") from None


# -- measurement commands ----------------------------------------------------


def _measurement_config(args) -> TracetreeConfig:
    return TracetreeConfig(max_ttl=args.max_ttl, timeout=args.timeout)


def _radar_config(args, inter_round_delay: float, rounds: int | None) -> RadarConfig:
    return RadarConfig(load_destinations(args.destinations), inter_round_delay, rounds, _measurement_config(args))


def cmd_radar_run(args) -> int:
    config = _radar_config(args, args.inter_round, args.rounds)
    rounds = probes = 0
    with (
        closing(_make_transport(args.transport, args.per_hop_delay, args.rate_cap)) as transport,
        DatasetWriter(args.out) as writer,
    ):
        try:
            for record in radar_rounds(config, transport):  # each round written, then dropped
                writer.write(record)
                rounds += 1
                probes += record.probes_sent
        except KeyboardInterrupt:  # an interrupted run ends with the rounds it wrote
            pass
    print(f"{rounds} rounds written to {args.out} ({probes} probes, monitor {transport.monitor_hop})")
    return EXIT_OK


def cmd_tracetree_once(args) -> int:
    config = _radar_config(args, 0.0, 1)
    transport = _make_transport(args.transport, args.per_hop_delay, args.rate_cap)
    with closing(transport), _output(args.out) as fh:
        [record] = radar_rounds(config, transport)
        fh.write(serialize_round(record.raw, record.index, record.start_time, record.end_time))
    print(
        f"1 round: {record.probes_sent} probes, "
        f"{len(record.tree.observed_ips())} distinct addresses",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_traceroute_once(args) -> int:
    destinations = load_destinations(args.destinations)
    transport = _make_transport(args.transport, args.per_hop_delay, args.rate_cap)
    with closing(transport), _output(args.out) as fh:
        started = transport.clock.now()
        raw = baseline.traceroute_round(destinations, transport, _measurement_config(args))
        fh.write(serialize_round(raw, 0, started, transport.clock.now()))
    print(
        f"1 round: {len(raw.keys)} probes, "
        f"{len(baseline.record_ips(raw))} distinct addresses",
        file=sys.stderr,
    )
    return EXIT_OK


def _scenario_time(text: str) -> float:
    """A plain ASCII decimal, digits with at most one `.`, finite; the
    error is worded as the round log words a bad ttl."""
    if text.isascii() and text.replace(".", "", 1).isdigit() and isfinite(float(text)):
        return float(text)
    raise ValueError(f"bad time {text!r}")


def cmd_simulate(args) -> int:
    topology = load_topology(args.topology)
    state = SimState(topology)
    lines_out = []
    for line_no, line in numbered_lines(args.scenario):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{args.scenario}:{line_no}: expected 'time destination ttl'")
        try:
            at_time, destination = _scenario_time(parts[0]), parse_address(parts[1])
            ttl = read_ttl(parts[2], None)
            state.apply_events(at_time)
            reply = state.route_probe(destination, ttl, at_time)
        except (ScenarioError, ValueError) as exc:
            raise ValueError(f"{args.scenario}:{line_no}: {exc}") from None
        source = reply.source if reply.source is not None else "-"
        lines_out.append(f"{at_time!r} {destination} {ttl} {reply.kind} {source}")
    _emit("\n".join(lines_out) + "\n", args.out)
    return EXIT_OK


# -- analysis commands -------------------------------------------------------


def cmd_analyze(args) -> int:
    dataset = _load_dataset(args.infile, args.monitor)
    op = args.operation
    if op == "counts":
        text = analytics.series_to_csv(analytics.per_round_ip_count(dataset), "distinct_ips")
    elif op == "window":
        series = analytics.windowed_ip_count(dataset, window=args.window, mode=args.mode)
        text = analytics.series_to_csv(series, f"distinct_ips_w{args.window}")
    elif op == "peaks":
        series = analytics.windowed_ip_count(dataset, window=args.window)
        found = analytics.detect_peaks(series, direction=args.direction, k=args.k)
        lines = [f"# direction={args.direction} k={args.k} median={found.median} threshold={found.threshold}"]
        if found.degenerate:
            lines.append("# degenerate: zero median absolute deviation")
        lines.append("round")
        lines.extend(str(i) for i in found.indices)
        text = "\n".join(lines) + "\n"
    elif op == "distribution":
        series = analytics.windowed_ip_count(dataset, window=args.window)
        text = analytics.histogram_to_csv(
            analytics.value_distribution(series, bin_width=args.bin_width), "distinct_ips", "rounds"
        )
    elif op == "components":
        if args.dot:
            text = analytics.component_neighborhood_dot(dataset, args.ref, args.obs)
        else:
            components = analytics.new_address_components(dataset, args.ref, args.obs)
            text = analytics.components_to_csv(components)
    elif op == "event-graph":
        graph = analytics.event_graph(dataset, args.round, before_window=args.before)
        text = graph.to_dot()
    else:  # correlate
        components = analytics.new_address_components(dataset, args.ref, args.obs)
        pairs, rho = analytics.size_vs_discovery_correlation(components)
        text = analytics.correlation_to_csv(pairs, rho)
    _emit(text, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    parsed = _read_rounds(args.infile)
    if not parsed:
        raise ValueError(f"{args.infile}: no rounds")
    traceroute_obs, tracetree_obs = [], []
    for _, raw in parsed:
        simulated = baseline.simulate_tracetree_from_traceroute(raw)
        traceroute_obs.append((baseline.record_ips(raw), len(raw.keys)))
        tracetree_obs.append((baseline.record_ips(simulated), len(simulated.keys)))

    tr_rounds, tr_packets = baseline.cumulative_discovery_curves(traceroute_obs)
    tt_rounds, tt_packets = baseline.cumulative_discovery_curves(tracetree_obs)

    rounds_rows = [(r, y_tr, y_tt) for (r, y_tr), (_, y_tt) in zip(tr_rounds, tt_rounds)]
    packet_rows = [("traceroute", x, y) for x, y in tr_packets]
    packet_rows += [("tracetree", x, y) for x, y in tt_packets]
    # the link loads of the last round
    load_tr = baseline.link_load_distribution(raw, first_hops=True)
    load_tt = baseline.link_load_distribution(simulated, first_hops=False)
    outputs = {
        "curves_rounds": analytics.rows_to_csv(["round", "traceroute_ips", "tracetree_ips"], rounds_rows),
        "curves_packets": analytics.rows_to_csv(["tool", "cum_packets", "distinct_ips"], packet_rows),
        "load_traceroute": analytics.histogram_to_csv(load_tr, "times_probed", "links"),
        "load_tracetree": analytics.histogram_to_csv(load_tt, "times_probed", "links"),
    }
    paths = [f"{args.out_prefix}.{name}.csv" for name in outputs]
    for path, text in zip(paths, outputs.values()):
        Path(path).write_text(text, encoding="utf-8")
    print("wrote", *paths)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _add_measurement_flags(parser, with_rounds: bool) -> None:
    parser.add_argument("--destinations", required=True, help="destination list file")
    parser.add_argument("--transport", default="icmp", help="sim:TOPOLOGY_FILE (JSON) or icmp")
    if with_rounds:
        parser.add_argument("--rounds", type=int, default=None, help="rounds to run (default: unbounded)")
        parser.add_argument("--inter-round", type=float, default=DEFAULT_INTER_ROUND_DELAY, dest="inter_round", help="delay between round starts, seconds")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT, help="probe timeout, seconds")
    parser.add_argument("--max-ttl", type=int, default=MAX_TTL_DEFAULT, dest="max_ttl")
    parser.add_argument("--per-hop-delay", type=float, default=DEFAULT_PER_HOP_DELAY, dest="per_hop_delay", help="simulated per-hop latency, seconds")
    parser.add_argument("--rate-cap", type=float, default=DEFAULT_RATE_CAP, dest="rate_cap", help="max probes per second (0: uncapped)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netradar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    radar = sub.add_parser("radar", help="periodic measurement rounds")
    radar_sub = radar.add_subparsers(dest="subcommand", required=True)
    radar_run = radar_sub.add_parser("run", help="run rounds and write them to a dataset file (overwritten)")
    _add_measurement_flags(radar_run, with_rounds=True)
    radar_run.add_argument("--out", required=True, help="dataset file to write; an existing file is overwritten")
    radar_run.set_defaults(func=cmd_radar_run)

    tracetree_cmd = sub.add_parser("tracetree", help="tree measurement")
    tracetree_sub = tracetree_cmd.add_subparsers(dest="subcommand", required=True)
    tt_once = tracetree_sub.add_parser("once", help="one round, round-log to stdout or --out")
    _add_measurement_flags(tt_once, with_rounds=False)
    tt_once.add_argument("--out", default=None)
    tt_once.set_defaults(func=cmd_tracetree_once)

    traceroute_cmd = sub.add_parser("traceroute", help="classic per-destination baseline")
    traceroute_sub = traceroute_cmd.add_subparsers(dest="subcommand", required=True)
    tr_once = traceroute_sub.add_parser("once", help="one sweep, round-log to stdout or --out")
    _add_measurement_flags(tr_once, with_rounds=False)
    tr_once.add_argument("--out", default=None)
    tr_once.set_defaults(func=cmd_traceroute_once)

    simulate = sub.add_parser("simulate", help="replay a probe scenario against a topology")
    simulate.add_argument("--topology", required=True, help="JSON topology file")
    simulate.add_argument("--scenario", required=True, help="file of 'time destination ttl' lines")
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=cmd_simulate)

    analyze = sub.add_parser("analyze", help="analyses over a dataset file")
    analyze.set_defaults(func=cmd_analyze)
    log_flags = argparse.ArgumentParser(add_help=False)
    log_flags.add_argument("--in", required=True, dest="infile", help="dataset (round-log) file")
    log_flags.add_argument("--out", default=None)
    log_flags.add_argument("--monitor", default=None, help="monitor address for the tree root")
    operations = analyze.add_subparsers(dest="operation", required=True)
    ops = {
        name: operations.add_parser(name, parents=[log_flags])
        for name in ("counts", "window", "peaks", "distribution", "components", "event-graph", "correlate")
    }
    for name in ("window", "peaks", "distribution"):
        ops[name].add_argument("--window", type=int, default=10, help="rounds per window")
    ops["window"].add_argument("--mode", choices=["sliding", "blocked"], default="sliding")
    ops["peaks"].add_argument("--direction", choices=["up", "down"], default="up")
    ops["peaks"].add_argument("--k", type=float, default=5.0, help="peak sensitivity")
    ops["distribution"].add_argument("--bin-width", type=int, default=1, dest="bin_width")
    for name in ("components", "correlate"):
        ops[name].add_argument("--ref", type=_parse_range, required=True, help="reference rounds START:STOP")
        ops[name].add_argument("--obs", type=_parse_range, required=True, help="observation rounds START:STOP")
    ops["components"].add_argument("--dot", action="store_true", help="emit DOT instead of CSV")
    ops["event-graph"].add_argument("--round", type=int, required=True, help="event round")
    ops["event-graph"].add_argument("--before", type=int, default=100, help="before-window size")

    compare = sub.add_parser("compare", help="traceroute vs simulated tree measurement (curves + loads)")
    compare.add_argument("--in", required=True, dest="infile", help="traceroute round-log file")
    compare.add_argument("--out-prefix", default="compare", dest="out_prefix")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError) as exc:  # TopologyError and RoundLogParseError are ValueErrors
        print(f"netradar: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"netradar: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION
    except TransportError as exc:
        print(f"netradar: transport: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"netradar: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
