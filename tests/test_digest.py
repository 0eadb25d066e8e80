"""Every layer's computed values hash to the committed digest lines.

``scripts/digest.py`` prints one SHA-256 line per layer; a change that keeps
every value, type and order prints ``tests/digest_expected.txt`` byte for
byte.  A change that means to alter a layer's values updates that file and
says which lines moved.
"""

import os
import subprocess
import sys
from pathlib import Path

from virhoch import cli

ROOT = Path(__file__).resolve().parents[1]


def test_digest_matches_committed_lines():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digest.py")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "digest_expected.txt").read_text()
