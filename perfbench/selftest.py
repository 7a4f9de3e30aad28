"""Self-test of the seeded input generator.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For seeds 0 and 1 the generated spellings must differ, and the smallest
stage of every workload must still meet its references when run against
the library in this process.  BENCHMARK.json must name the workloads and
per-layer metrics this directory produces.  Exits 0 when every check
passes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import child
import layers
import run
import workloads


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if per_layer != layers.METRICS + [("trace.overhead_s", "s")]:
        problems.append("BENCHMARK.json per_layer differs from layers.py")
    for name in workloads.WORKLOADS:
        spellings = [workloads.operations(name, seed) for seed in (0, 1)]
        strip = [[{k: v for k, v in op.items() if k != "check"} for op in ops]
                 for ops in spellings]
        if strip[0] == strip[1]:
            problems.append(f"{name}: seeds 0 and 1 spell the inputs alike")
        for seed in (0, 1):
            ops = workloads.operations(name, seed, smallest=True)
            with tempfile.TemporaryDirectory(dir=run.ROOT) as out_dir:
                sample = {"exit": 0,
                          "record": {"ops": child.run_ops(ops, out_dir)}}
            problems += [f"{name} seed {seed}: {problem}"
                         for problem in run.failures(ops, sample)]
        print(f"{name}: checked seeds 0 and 1")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
