"""What one ``perfbench`` sample is made of, phase by phase.

Runs each workload's operations in fresh child processes started the way
``perfbench/run.py`` starts them (one BLAS thread, no ``PYTHONPATH``, the
caller's ``PYTHONDONTWRITEBYTECODE``), and splits each child's wall time
into five phases, read from the system's monotonic clock:

* ``interpreter``: from spawning the child to its first line (start-up
  and ``site``);
* ``numpy``: ``import numpy``;
* ``package``: compiling and executing every ``coholap`` module the
  workload loads (found by one untimed child that runs the workload);
* ``compute``: running the operations;
* ``exit``: from the last operation to the child's exit.

Prints the minimum and the median of each phase over ``--repeats``
children per workload, in milliseconds::

    python3 tools/sample_phases.py --repeats 12
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, operations  # noqa: E402

PHASES = ("interpreter", "numpy", "package", "compute", "exit")
CHILD = """
import time
t0 = time.monotonic()
import json, sys
import numpy
t1 = time.monotonic()
sys.path[:0] = [{src!r}, {bench!r}]
from child import run_ops
modules = {modules!r}
for name in modules or ["coholap.cli"]:
    __import__(name)
t2 = time.monotonic()
results = run_ops(json.load(open({ops!r})), {out!r})
t3 = time.monotonic()
print(json.dumps({{"marks": [t0, t1, t2, t3], "results": results,
                  "modules": sorted(m for m in sys.modules
                                    if m.startswith("coholap"))}}))
"""


def child(ops_path: str, out_dir: str, modules: list[str]) -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONPATH", None)
    code = CHILD.format(src=os.path.join(ROOT, "src"),
                        bench=os.path.join(ROOT, "perfbench"),
                        modules=modules, ops=ops_path, out=out_dir)
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    end = time.monotonic()
    record = json.loads(done.stdout)
    if any(result.get("exit") != 0 for result in record["results"]):
        raise SystemExit(f"an operation failed: {record['results']}")
    marks = [start, *record["marks"], end]
    record["phases"] = [b - a for a, b in zip(marks, marks[1:])]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    print("workload", *(f"{p} min/median ms" for p in PHASES), sep="\t")
    with tempfile.TemporaryDirectory() as scratch:
        ops_path = os.path.join(scratch, "ops.json")
        for workload in args.workload or WORKLOADS:
            with open(ops_path, "w", encoding="utf-8") as handle:
                json.dump(operations(workload, args.seed), handle)
            modules = child(ops_path, scratch, [])["modules"]
            phases = list(zip(*(child(ops_path, scratch, modules)["phases"]
                                for _ in range(args.repeats))))
            print(workload, *(f"{1e3 * min(p):.1f}/"
                              f"{1e3 * statistics.median(p):.1f}"
                              for p in phases), sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
