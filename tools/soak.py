"""Run a long simulated radar season and print what it costs.

    python3 tools/soak.py --rounds N --destinations M --seed S

Runs N rounds over the Internet-like topology of `perfbench/inet.py`
(seeded, M destinations, imported read-only) on the simulator's virtual
clock, through the loop `netradar radar run` uses: `radar_rounds`, each
round written by `DatasetWriter` and then dropped.  The round log goes
to a temporary directory, removed at the end.  It prints:

- wall seconds per round, over the first N/10 rounds;
- resident memory after a collection at round N/10 and at round N, and
  the growth per round between the two;
- the growth per round of the memory `tracemalloc` traces, after a
  collection at round T + 1 and at round N, where T = max(N/10, N - 200);
  it starts at round T, so at most the last 200 rounds run traced (about
  12 times slower), and both readings hold one traced round in hand;
- log bytes per round, and the SHA-256 of the whole log, which two
  checkouts match round for round when they route every probe alike;
- the wall time and peak resident memory of `netradar analyze counts`
  and of `netradar analyze components --ref 0:N/2 --obs N/2:N` on the
  log, each run in a child process.

Resident memory is read from /proc (Linux).  The tool sets no bounds;
it measures.  Run it from anywhere; it reads the checkout it lives in.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_ROUNDS = 200  # tracemalloc counts bytes exactly, so 200 rounds show a 1 KB-a-round leak


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


def run_child(argv: list[str]) -> tuple[float, float]:
    """Run `python argv` with `src/` on its path; its wall seconds and
    peak resident memory in MB."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - started
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"soak: {' '.join(argv)} failed")
    return elapsed, usage.ru_maxrss / 1024  # KB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rounds", type=int, required=True, help="rounds to run, at least 3")
    parser.add_argument("--destinations", type=int, required=True, help="destinations in the topology")
    parser.add_argument("--seed", type=int, required=True, help="topology seed")
    args = parser.parse_args(argv)
    if args.rounds < 3:
        parser.error("--rounds must be at least 3")
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
    traced_from = max(early, args.rounds - TRACED_ROUNDS)
    rss: dict[int, float] = {}
    traced: dict[int, int] = {}
    with tempfile.TemporaryDirectory(prefix="netradar-soak-") as tmp:
        log = Path(tmp) / "soak.rounds"
        started = time.perf_counter()
        with DatasetWriter(log) as writer:
            for record in radar_rounds(config, transport):
                writer.write(record)
                done = record.index + 1
                if done == early:
                    radar_s = time.perf_counter() - started
                if done in (early, traced_from + 1, args.rounds):
                    gc.collect()
                    rss[done] = rss_mb()
                    traced[done] = tracemalloc.get_traced_memory()[0]  # 0 until it starts
                if done == traced_from:
                    tracemalloc.start()
        tracemalloc.stop()
        log_bytes = log.stat().st_size
        digest = hashlib.sha256(log.read_bytes()).hexdigest()
        half = args.rounds // 2
        ranges = ["--ref", f"0:{half}", "--obs", f"{half}:{args.rounds}"]
        out = str(Path(tmp) / "analyze.out")
        analyze = {
            name: run_child(["-m", "netradar.cli", "analyze", name, *flags, "--in", str(log), "--out", out])
            for name, flags in (("counts", []), ("components", ranges))
        }

    span = args.rounds - early
    print(f"rounds: {args.rounds}, destinations: {args.destinations}, seed: {args.seed}")
    print(f"seconds per round: {radar_s / early:.4f}")
    print(f"rss after gc at round {early}: {rss[early]:.1f} MB")
    print(f"rss after gc at round {args.rounds}: {rss[args.rounds]:.1f} MB")
    print(f"rss growth per round: {(rss[args.rounds] - rss[early]) * 1024 / span:.2f} KB")
    traced_growth = (traced[args.rounds] - traced[traced_from + 1]) / 1024 / (args.rounds - traced_from - 1)
    print(f"tracemalloc growth per round: {traced_growth:.2f} KB")
    print(f"log bytes per round: {log_bytes / args.rounds:.0f}")
    print(f"log sha256: {digest}")
    for name, (seconds, max_rss) in analyze.items():
        print(f"analyze {name}: {seconds:.2f} s, max rss {max_rss:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
