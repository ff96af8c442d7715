"""Run a long simulated radar season and print what it costs.

    python3 tools/soak.py --rounds N --destinations M --seed S

Runs N rounds over the Internet-like topology of `perfbench/inet.py`
(seeded, M destinations, imported read-only) on the simulator's virtual
clock, through the loop `netradar radar run` uses: `radar_rounds`, each
round written by `DatasetWriter` and then dropped.  The round log goes
to a temporary directory, removed at the end.  It prints:

- wall seconds per round;
- resident memory after a collection at round N/10 and at round N, and
  the growth per round between the two;
- log bytes per round;
- the wall time and peak resident memory of `netradar analyze counts`
  on the log, run in a child process.

Resident memory is read from /proc (Linux).  The tool sets no bounds;
it measures.  Run it from anywhere; it reads the checkout it lives in.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_inet():
    """perfbench's topology generator, imported read-only."""
    spec = importlib.util.spec_from_file_location("perfbench_inet", ROOT / "perfbench" / "inet.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rounds", type=int, required=True, help="rounds to run, at least 2")
    parser.add_argument("--destinations", type=int, required=True, help="destinations in the topology")
    parser.add_argument("--seed", type=int, required=True, help="topology seed")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    sys.path.insert(0, str(SRC))
    from netradar.model import parse_address
    from netradar.radar import DatasetWriter, RadarConfig, radar_rounds
    from netradar.simnet import load_topology
    from netradar.transport import SimTransport

    inet = load_inet()
    net = inet.generate(args.seed, args.destinations)
    config = RadarConfig(
        destinations=[parse_address(d) for d in net.destinations],
        inter_round_delay=inet.ROUND_DELAY,  # the generator's events fall between rounds
        rounds=args.rounds,
    )
    transport = SimTransport(load_topology(net.doc))
    early = args.rounds // 10 or 1
    rss: dict[int, float] = {}
    with tempfile.TemporaryDirectory(prefix="netradar-soak-") as tmp:
        log = Path(tmp) / "soak.rounds"
        measuring = 0.0
        started = time.perf_counter()
        with DatasetWriter(log) as writer:
            for record in radar_rounds(config, transport):
                writer.write(record)
                done = record.index + 1
                if done in (early, args.rounds):
                    mark = time.perf_counter()
                    gc.collect()
                    rss[done] = rss_mb()
                    measuring += time.perf_counter() - mark
        radar_s = time.perf_counter() - started - measuring
        log_bytes = log.stat().st_size

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-m", "netradar.cli", "analyze", "counts", "--in", str(log), "--out", str(Path(tmp) / "counts.csv")]
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        analyze_s = time.perf_counter() - started
    analyze_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KB on Linux

    print(f"rounds: {args.rounds}, destinations: {args.destinations}, seed: {args.seed}")
    print(f"seconds per round: {radar_s / args.rounds:.4f}")
    print(f"rss after gc at round {early}: {rss[early]:.1f} MB")
    print(f"rss after gc at round {args.rounds}: {rss[args.rounds]:.1f} MB")
    print(f"rss growth per round: {(rss[args.rounds] - rss[early]) * 1024 / (args.rounds - early):.2f} KB")
    print(f"log bytes per round: {log_bytes / args.rounds:.0f}")
    print(f"analyze counts: {analyze_s:.2f} s, max rss {analyze_rss_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
