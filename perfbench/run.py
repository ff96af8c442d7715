"""netradar benchmark.

usage: python3 perfbench/run.py --workload {fan,inet,analyze} --seed N
                                --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Prints a table of the metrics with their sample counts and the time of
the reference work the timings are scaled by, then, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).  Exits 1 when a correctness
check fails, 2 when the program cannot be found or run.
"""
import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fan", "inet", "analyze")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="netradar benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "netradar" / "__init__.py").is_file():
        print(f"netradar sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the run and, by inheritance, for its set-up child, so
    # that the reference work the timings are scaled by meets the same CPU
    # as the program.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench")
    for name, (value, unit) in result.metrics.items():
        samples = result.samples.get(name)
        print(f"{name:45s} {value:16.6f} {unit}" + (f"  (n={samples})" if samples else ""))
    print(
        f"reference work took {result.reference_s:.4f} s (median); times above are scaled "
        f"by {workloads.REFERENCE_S / result.reference_s:.4f} to a machine where it takes {workloads.REFERENCE_S} s"
    )
    for problem in result.problems:
        print(f"FAILED CHECK: {problem}")
    report = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
