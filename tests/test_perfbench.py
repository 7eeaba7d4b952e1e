"""The benchmark's quick mode: every workload's output checks on tiny
request lists, run against this checkout's package."""

import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.skipif(not (PERFBENCH / "run.py").exists(), reason="no perfbench/ in this tree")
def test_quick_mode_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
