"""The benchmark's self-test runs real sbfe outputs through its checkers and
shows each checker rejecting corrupted output.  Running it here makes a
change to what those checkers read fail the test suite, not only a
benchmark run."""
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(BENCHMARK / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all checks behave" in done.stdout
