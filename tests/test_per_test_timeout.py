"""tests/conftest.py's SIGALRM fallback names a timed-out test.

The child's loop is a ``for`` whose body ends in an ``if``: on CPython
3.11 its jump back has no line number, so the alarm leaves a traceback
entry whose ``tb_lineno`` is None (a hung shard pump did the same).
pytest's own formatter fails on it with INTERNALERROR and names no test.
"""

import os
import subprocess
import sys
from pathlib import Path

SPIN = """import itertools, pytest

@pytest.mark.timeout(1)
def test_spins():
    total = 0
    for spins in itertools.count():
        if spins >= 0:
            total += 1
"""


def test_a_timed_out_test_fails_by_name(tmp_path):
    (tmp_path / "test_spin.py").write_text(SPIN)
    root = str(Path(__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "tests.conftest", "-p", "no:timeout",
         "-p", "no:cacheprovider", "test_spin.py"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=root),
        capture_output=True, text=True, timeout=60,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1 and "INTERNALERROR" not in out, out
    assert "test_spin.py::test_spins" in out and "PerTestTimeout" in out
