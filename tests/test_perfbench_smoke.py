"""The benchmark harness stays runnable: its self-test passes end to end."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "selftest: ok"
