"""Benchmark command: one workload, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample spawns one fresh child process (``perfbench/child.py``) that
runs the workload's operations, and the next sample starts only after it
exits.  Samples are taken while the next one, judged by the last, still
fits in ``--seconds``; at least MIN_SAMPLES are always taken.  Before
them, one untimed child warms the bytecode cache.  Every sample sets up
anew, so ``setup_s`` is a median over several set-ups.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
(medians over samples; timings scaled to a nominal CPU speed, see
``spawn``).  With ``--trace 1`` samples alternate between an
untraced and a traced child, and it holds the per-layer metrics of the
traced ones plus the tracing overhead.  Every operation's output is
checked against exact references; a miss, an exception or a non-zero exit
counts as a failed operation.  A fuller record, with the machine and
software facts, goes to ``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
# Reference-loop time that the reported timings are scaled to (see spawn);
# about the loop's time in a fast phase of the 2-CPU machine the bounds
# were set on, so that scaled and raw times are alike there.
REFERENCE_NOMINAL_S = 0.04
MIN_SAMPLES = 2
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def child_env() -> dict:
    """The caller's environment with one BLAS thread.

    One thread keeps a sample's time tied to one CPU: on a machine whose
    CPUs slow down independently, a threaded solve waits for the slower
    one.  It also makes ``cpu_s`` above ``wall_s`` a sign of the program's
    own parallelism.
    """
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONPATH", None)
    return env


def spawn(ops: list[dict], trace: bool, env: dict, tag: str) -> dict:
    """Run one child to completion; its own wait4 rusage gives CPU and RSS."""
    ops_path = os.path.join(OUT, f"{tag}.ops.json")
    result_path = os.path.join(OUT, f"{tag}.result.json")
    with open(ops_path, "w", encoding="utf-8") as handle:
        json.dump(ops, handle)
    if os.path.exists(result_path):
        os.remove(result_path)
    with open(os.path.join(OUT, f"{tag}.stderr"), "w") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, ops_path, result_path, "1" if trace else "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
            env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.send_signal,
                                   (signal.SIGKILL,))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as handle:
            record = json.load(handle)
    sample = {"exit": proc.returncode, "record": record, "elapsed_s": end - start,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    reference = record.get("reference")
    if reference is None:
        return dict(sample, wall_s=None, setup_s=None, cpu_s=None, raw={})
    # The reference loops are not part of the workload: the child runs
    # them before anything else.
    raw = {"wall_s": end - start - reference["wall_s"],
           "setup_s": record["ready"] - start - reference["wall_s"],
           "cpu_s": usage.ru_utime + usage.ru_stime - reference["cpu_s"],
           "reference_wall_s": reference["fastest_wall_s"],
           "reference_cpu_s": reference["fastest_cpu_s"]}
    # This machine's CPUs change speed by up to 2x, each on its own, for
    # tens of seconds at a time.  The reference loop the child ran on its
    # own CPU just before the workload tracks that speed, but the
    # workloads follow it only partly (log-log slope 0.4 to 0.75 over some
    # 400 samples), so each timing is scaled by the square root of the
    # loop's slowdown against REFERENCE_NOMINAL_S: that removes most of
    # the swing without over-correcting.  The loop runs before the package
    # is imported, so the scale cannot depend on the program, and a change
    # to the program moves these numbers as it moves raw time; the raw
    # figures stay in the run record.
    wall_scale = math.sqrt(REFERENCE_NOMINAL_S / raw["reference_wall_s"])
    cpu_scale = math.sqrt(REFERENCE_NOMINAL_S / raw["reference_cpu_s"])
    return dict(sample, raw=raw, wall_s=raw["wall_s"] * wall_scale,
                setup_s=raw["setup_s"] * wall_scale,
                cpu_s=raw["cpu_s"] * cpu_scale)


def failures(ops: list[dict], sample: dict) -> list[str]:
    """One message per failed operation of a sample."""
    results = sample["record"].get("ops", [])
    if sample["exit"] != 0 or len(results) != len(ops):
        return [f"child exited {sample['exit']} after {len(results)} "
                f"of {len(ops)} operations"] * len(ops)
    out = []
    for op, result in zip(ops, results):
        if result["exit"] != 0:
            out.append(f"{op['check']['what']}: exit {result['exit']} "
                       f"{result.get('error', result.get('report', ''))[-400:]}")
            continue
        try:
            output = (json.loads(result["report"]) if op["kind"] == "cli"
                      else result["facts"])
            misses = workloads.check(op, output)
        except (KeyError, TypeError, ValueError) as exc:
            misses = [f"unreadable output: {exc!r}"]
        if misses:
            out.append(f"{op['check']['what']}: " + "; ".join(misses))
    return out


def per_layer(workload: str, traced: list[dict], untraced_wall_s: float
              ) -> tuple[dict, list[str]]:
    """Medians of the traced samples' layer metrics, the tracing overhead,
    and a message for each call count that differs from the expected one.

    Self times are scaled to nominal speed like the sample's ``wall_s``."""
    samples = [s["record"].get("layers", {}) for s in traced]
    scales = [s["wall_s"] / s["raw"]["wall_s"] if s["wall_s"] else 1.0
              for s in traced]
    metrics = {}
    for name, unit in layers.METRICS:
        values = [sample[name] * (scale if name.endswith(".self_s") else 1)
                  for sample, scale in zip(samples, scales) if name in sample]
        metrics[name] = {"value": statistics.median(values) if values else 0.0,
                         "unit": unit}
    traced_wall_s = [s["wall_s"] for s in traced if s["wall_s"] is not None]
    metrics["trace.overhead_s"] = {
        "value": (statistics.median(traced_wall_s) if traced_wall_s else 0.0)
        - untraced_wall_s, "unit": "s"}
    expected = workloads.EXPECTED_CALLS[workload]
    problems = []
    for sample in samples:
        for layer in layers.CALLS:
            count, want = sample.get(f"{layer}.calls"), expected.get(layer, 0)
            if count != want:
                problems.append(f"{layer}.calls={count}, expected {want}")
    return metrics, problems


def tail_percentile(values: list[float]):
    """Highest of p50/p90/p99 with at least ten samples beyond it, or None."""
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def environment(args, order: list[str], env: dict) -> dict:
    """Facts that make two result sets comparable."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "order": order,
    }


def _commit() -> str:
    """Git commit when the checkout has one, plus a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = head.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "coholap", "__init__.py")):
        print(f"no coholap sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    ops = workloads.operations(args.workload, args.seed)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    order = []

    spawn([], False, env, tag)  # warm the bytecode cache; not timed
    order.append("warm-up")

    start = time.monotonic()
    untraced, traced, problems = [], [], []
    attempted = 0
    while True:
        trace = bool(args.trace) and len(untraced) > len(traced)
        sample = spawn(ops, trace, env, tag)
        order.append(f"{args.workload}{'+trace' if trace else ''}")
        (traced if trace else untraced).append(sample)
        attempted += len(ops)
        problems += failures(ops, sample)
        elapsed = time.monotonic() - start
        taken = len(untraced) + len(traced)
        if taken >= MIN_SAMPLES and elapsed + sample["elapsed_s"] > args.seconds:
            break

    e2e = {name: [s[name] for s in untraced if s[name] is not None]
           for name in END_TO_END}
    summary = {name: {"median": statistics.median(values) if values else 0.0,
                      "n": len(values), "tail": tail_percentile(values)}
               for name, values in e2e.items()}
    if args.trace:
        metrics, trace_problems = per_layer(args.workload, traced,
                                            summary["wall_s"]["median"])
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
        trace_problems = []

    failed = len(problems)
    report = {
        "workload": args.workload,
        "environment": environment(args, order, env),
        "summary": summary,
        "samples": {kind: [{**{k: s[k] for k in END_TO_END}, "raw": s["raw"]}
                           for s in samples]
                    for kind, samples in (("untraced", untraced),
                                          ("traced", traced))},
        "failed_ratio": failed / attempted,
        "problems": problems + trace_problems,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    for problem in problems + trace_problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, unit in END_TO_END.items():
        s = summary[name]
        tail = (f", p{s['tail'][0]} {s['tail'][1]:.4f}" if s["tail"]
                else ", no tail percentile with 10 samples beyond it")
        print(f"{args.workload} {name}: median {s['median']:.4f} {unit} "
              f"(n={s['n']}{tail})")
    print(f"{args.workload} failed_ratio: {failed}/{attempted}")
    correct = not problems and not trace_problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
