"""The traced bench's bindings against the package.

``perfbench/layers.py`` wraps package functions by name and fails in
``Tracer.install`` when a name is gone or a module still binds an
untraced original, so renaming or deleting a traced function must fail
here, not only in a traced bench run.
"""

from pathlib import Path

from conftest import fresh_interpreter

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_the_tracer_installs_on_the_package():
    fresh_interpreter("""
        from layers import Tracer
        Tracer().install()
    """, path=(PERFBENCH,))


def test_command_handlers_call_through_the_tracer(tmp_path):
    # the handlers import the layers when they run, after the tracer has
    # rebound them, as in a traced bench child
    calls = fresh_interpreter("""
        import contextlib, io, sys
        import coholap.cli
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            assert coholap.cli.main(
                ["betti", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
        print(tracer.calls["pipeline.betti_report"],
              tracer.calls["spectral.evaluate"], tracer.calls["cli"])
    """, str(ROOT / "demos" / "specs" / "torus_quotient.json"), str(tmp_path),
        path=(PERFBENCH,))
    # degrees 0, 1 and 2 of one stage: one Laplacian each
    assert calls.split() == ["3", "3", "1"]


def test_the_pinned_call_counts_hold(tmp_path):
    # each workload at seed 0, as a traced bench child runs it; each new
    # tracer wraps the last one's wrappers and counts only its workload
    fresh_interpreter("""
        import sys
        import child, layers, run, workloads
        for name in workloads.WORKLOADS:
            tracer = layers.Tracer()
            tracer.install()
            ops = workloads.operations(name, 0)
            results = child.run_ops(ops, sys.argv[1], tracer)
            problems = run.failures(
                ops, {"exit": 0, "record": {"ops": results}})
            assert not problems, (name, problems)
            expected = workloads.EXPECTED_CALLS[name]
            calls = {layer: tracer.calls[layer] for layer in layers.CALLS}
            assert calls == {layer: expected.get(layer, 0)
                             for layer in layers.CALLS}, (name, calls)
    """, str(tmp_path), path=(PERFBENCH,))


def test_the_bench_self_test_passes():
    # seeds 0 and 1 spell every input apart, the smallest stage of each
    # workload meets its references, and BENCHMARK.json names what the
    # bench produces
    fresh_interpreter("""
        import sys
        import selftest
        sys.exit(selftest.main())
    """, path=(PERFBENCH,))
