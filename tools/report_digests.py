"""Digests of every demo report, for byte-identity checks between commits.

Runs each of the 8 ``coholap`` commands on each experiment description in
``demos/specs`` at ``--ball-radius 3``, with the ``src/`` of the checkout
this script lives in, and prints one SHA-256 per exit code, stdout and
written file (``run_meta.json`` holds timestamps and paths and is left
out).  Every run happens in a scratch directory with relative paths, so
the output depends only on the code.  To compare two commits::

    python3 tools/report_digests.py > a.txt     # in one checkout
    python3 tools/report_digests.py > b.txt     # in the other
    diff a.txt b.txt
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("betti", "euler", "ghost", "luck", "obstruct", "project",
            "spectrum", "verify-cert")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    specs = sorted(p.name for p in (ROOT / "demos" / "specs").glob("*.json"))
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(ROOT / "demos" / "specs", Path(scratch, "specs"))
        for spec in specs:
            for command in COMMANDS:
                out = Path(scratch, "out")
                shutil.rmtree(out, ignore_errors=True)
                done = subprocess.run(
                    [sys.executable, "-m", "coholap.cli", command,
                     f"specs/{spec}", "--ball-radius", "3", "--out-dir", "out"],
                    cwd=scratch, env=env, capture_output=True, check=False)
                tag = f"{spec} {command}"
                print(f"{tag} exit {_digest(str(done.returncode).encode())}")
                print(f"{tag} stdout {_digest(done.stdout)}")
                written = sorted(out.iterdir()) if out.exists() else []
                for path in written:
                    if path.name != "run_meta.json":
                        print(f"{tag} {path.name} {_digest(path.read_bytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
