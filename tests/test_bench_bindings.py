"""The traced bench's bindings against the package.

``perfbench/layers.py`` wraps package functions by name and fails in
``Tracer.install`` when a name is gone or a module still binds an
untraced original, so renaming or deleting a traced function must fail
here, not only in a traced bench run.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import coholap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_tracer_installs_on_the_package():
    script = textwrap.dedent("""
        from layers import Tracer
        Tracer().install()
    """)
    src = os.path.dirname(os.path.dirname(coholap.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join((str(PERFBENCH), src)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
