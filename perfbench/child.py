"""One workload run in a fresh process.

Usage: python3 perfbench/child.py OPS_JSON RESULT_JSON TRACE

Times a fixed reference loop first, on the CPU the process starts on and
before anything of the package is loaded, so that the loop's time cannot
depend on the program.  Then imports ``coholap`` from
the checkout's ``src``, optionally installs the layer tracer, records the
monotonic time just before its first call into the package, runs each
operation and writes what it saw to RESULT_JSON.  An operation that raises
or exits non-zero is recorded, not re-raised, so the parent can count it
as failed.  Checking outputs against references is left to the parent,
outside the timed process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
import warnings
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_cli(op: dict, out_dir: str, tracer) -> dict:
    from coholap import cli

    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(op["spec"], handle)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([op["argv"][0], spec_path, *op["argv"][1:],
                         "--out-dir", out_dir])
    text = stdout.getvalue()
    if tracer is not None:
        tracer.counts["cli.report_bytes"] += len(text.encode("utf-8"))
    return {"exit": code, "report": text}


def _run_quotient_chain(op: dict) -> dict:
    from coholap import cosets
    from coholap.groupring import Presentation
    from coholap.textform import parse_word

    names = op["generators"]
    presentation = Presentation(
        tuple(names), tuple(parse_word(text, names) for text in op["relators"]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cosets.SeparationWarning)
        chain = cosets.quotient_chain(presentation, op["chain"],
                                      ball_radius=op["ball_radius"])
    return {"exit": 0, "facts": {
        "orders": list(chain.indices),
        "words_checked": chain.separation.words_checked,
        "failure_count": chain.separation.failure_count,
    }}


def run_ops(ops: list[dict], out_dir: str, tracer=None) -> list[dict]:
    """Run each operation; an exception is recorded as its result."""
    results = []
    for op in ops:
        try:
            if op["kind"] == "cli":
                results.append(_run_cli(op, out_dir, tracer))
            else:
                results.append(_run_quotient_chain(op))
        except Exception:
            results.append({"exit": None, "error": traceback.format_exc()})
    return results


def reference_loop() -> None:
    """Fixed exact-arithmetic work in the style of the package's hot paths:
    build a grid of fractions, convert it to floats, compare it with its
    transpose, and multiply a small fraction matrix by itself."""
    n = 100
    grid = tuple(tuple(Fraction((i * j) % 11 - 5, 1 + (i + j) % 3)
                       for j in range(n)) for i in range(n))
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += float(grid[i][j]) + (grid[i][j] == grid[j][i])
    small = tuple(row[:20] for row in grid[:20])
    for row in small:
        for col in zip(*small):
            acc = Fraction(0)
            for x, y in zip(row, col):
                if x and y:
                    acc += x * y


def reference() -> dict:
    """Fastest of three reference loops by wall and by CPU time, and what
    all three cost."""
    wall, cpu = time.perf_counter(), time.process_time()
    fastest_wall = fastest_cpu = float("inf")
    for _ in range(3):
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        reference_loop()
        fastest_wall = min(fastest_wall, time.perf_counter() - start_wall)
        fastest_cpu = min(fastest_cpu, time.process_time() - start_cpu)
    return {"fastest_wall_s": fastest_wall, "fastest_cpu_s": fastest_cpu,
            "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu}


def main(argv: list[str]) -> int:
    ops_path, result_path, trace = argv
    before = reference()
    with open(ops_path, encoding="utf-8") as handle:
        ops = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import coholap.cli  # noqa: F401  (the import a CLI user pays)

    tracer = None
    if trace == "1":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = os.path.join(os.path.dirname(result_path), "out")
    os.makedirs(out_dir, exist_ok=True)
    ready = time.monotonic()
    results = run_ops(ops, out_dir, tracer)
    record = {"reference": before, "ready": ready, "ops": results}
    if tracer is not None:
        record["layers"] = tracer.metrics()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
