"""Digests of every demo report, for byte-identity checks between commits.

Runs each of the 8 ``coholap`` commands on each experiment description in
``demos/specs`` at ``--ball-radius 3``, plus ``luck`` on
``genus2_chain.json`` at ``--ball-radius 5``, where the chain fails to
separate, and each ``demos/tour_*.py`` script, with the ``src/`` of the
checkout this script lives in.  ``project`` and ``ghost`` also run on a
copy of each description with ``"method": "heat"`` in ``specs/heat/``,
its lines tagged with that directory.  Prints one SHA-256 per exit code,
stdout, stderr (the only place a ``SeparationWarning`` and its first
failing word reach the user) and written file (``run_meta.json`` holds
timestamps and paths and is left out).  Every run happens in a scratch
directory with relative paths and one BLAS thread, so the output
depends only on the code, not on the machine's core count.  A run whose
stderr holds a Python traceback also prints a ``<tag> TRACEBACK`` line,
so an uncaught exception shows by name in a diff, not as one more
changed digest.

A JSON stdout or file, and a CSV file, also gets a ``~9`` digest, taken
after rounding every float to 9 significant digits and every float below
1e-9 in magnitude, which is below every zero-cluster threshold, to 0.  A
CSV float is a cell, or a ``;``-separated item of one, that reads as a
float but not as an integer; ``p/q`` cells, booleans and text are kept.
A change that only moves float low bits then changes the raw digest but
not the rounded one.  To compare two commits, with this script copied
into both checkouts::

    python3 tools/report_digests.py > a.txt     # in one checkout
    python3 tools/report_digests.py > b.txt     # in the other
    diff a.txt b.txt
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("betti", "euler", "ghost", "luck", "obstruct", "project",
            "spectrum", "verify-cert")
EXTRA_RUNS = (("genus2_chain.json", "luck", "5"),)
HEAT_COMMANDS = ("ghost", "project")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rounded(value):
    if isinstance(value, float):
        return 0.0 if abs(value) < 1e-9 else float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _rounded_csv_item(item: str) -> str:
    """A float item rounded as ``_rounded`` rounds a JSON float; an
    integer, ``p/q``, boolean or text item as it is."""
    try:
        int(item)
    except ValueError:
        try:
            return repr(_rounded(float(item)))
        except ValueError:
            pass
    return item


def _print_digests(tag: str, data: bytes, is_csv: bool = False) -> None:
    print(f"{tag} {_digest(data)}")
    if is_csv:
        rounded = json.dumps([
            [";".join(map(_rounded_csv_item, cell.split(";"))) for cell in row]
            for row in csv.reader(io.StringIO(data.decode()))])
    else:
        try:
            parsed = json.loads(data)
        except ValueError:
            return
        rounded = json.dumps(_rounded(parsed), sort_keys=True)
    print(f"{tag}~9 {_digest(rounded.encode())}")


def _print_process(tag: str, done: subprocess.CompletedProcess) -> None:
    print(f"{tag} exit {_digest(str(done.returncode).encode())}")
    _print_digests(f"{tag} stdout", done.stdout)
    print(f"{tag} stderr {_digest(done.stderr)}")
    if b"Traceback (most recent call last)" in done.stderr:
        print(f"{tag} TRACEBACK")


def main() -> int:
    # one BLAS thread: a dense gap's low bits depend on the thread count
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    specs = sorted(p.name for p in (ROOT / "demos" / "specs").glob("*.json"))
    runs = [(spec, command, "3") for spec in specs for command in COMMANDS]
    heat_runs = [(f"heat/{spec}", command, "3")
                 for spec in specs for command in HEAT_COMMANDS]
    tours = sorted(p.name for p in (ROOT / "demos").glob("tour_*.py"))
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(ROOT / "demos" / "specs", Path(scratch, "specs"))
        shutil.copytree(ROOT / "demos", Path(scratch, "demos"))
        Path(scratch, "specs", "heat").mkdir()
        for spec in specs:
            payload = json.loads(Path(scratch, "specs", spec).read_text())
            Path(scratch, "specs", "heat", spec).write_text(
                json.dumps({**payload, "method": "heat"}))
        for spec, command, radius in [*runs, *EXTRA_RUNS, *heat_runs]:
            out = Path(scratch, "out")
            shutil.rmtree(out, ignore_errors=True)
            done = subprocess.run(
                [sys.executable, "-m", "coholap.cli", command,
                 f"specs/{spec}", "--ball-radius", radius, "--out-dir", "out"],
                cwd=scratch, env=env, capture_output=True, check=False)
            tag = f"{spec} {command} r{radius}"
            _print_process(tag, done)
            written = sorted(out.iterdir()) if out.exists() else []
            for path in written:
                if path.name != "run_meta.json":
                    _print_digests(f"{tag} {path.name}", path.read_bytes(),
                                   path.suffix == ".csv")
        for tour in tours:
            done = subprocess.run(
                [sys.executable, f"demos/{tour}"],
                cwd=scratch, env=env, capture_output=True, check=False)
            _print_process(tour, done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
