"""Set-ups of the workloads, in an interpreter of their own.

usage: python3 perfbench/setup_child.py

A run starts this once and, whenever one is due, asks it for a set-up
or for a timing of the reference work: one JSON request a line on
standard input, one JSON answer a line on standard output.  Set-ups run
here rather than in the measured process, so that neither their heap nor
their garbage collections become the measured process's.  Each request
starts from a collected heap.  The child ends at the end of its input.

    {"workload": "fan" or "inet", "seed": N, "sizes": {...}}
        -> {"setup_s": seconds, "digest": digest of the topology document}
    {"workload": "analyze", "seed": N, "outdir": DIR}
        -> writes DIR/analyze.log, answers the expected command outputs
    {"workload": "reference"}
        -> {"reference_s": seconds of workloads.reference_work()}
"""
import gc
import json
import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    for line in sys.stdin:
        request = json.loads(line)
        gc.collect()
        if request["workload"] == "reference":
            answer = {"reference_s": workloads.reference_work()}
        elif request["workload"] == "analyze":
            answer = workloads.write_analyze_log(request["seed"], Path(request["outdir"]))
        else:
            answer = workloads.timed_set_up(request["workload"], request["seed"], request["sizes"])
        print(json.dumps(answer), flush=True)
