"""Smoke test of the benchmark harness (slow: about two minutes).

Runs ``run.py --smoke``: every workload once at minimum size, untraced
and traced, checking that each metric BENCHMARK.json names is reported
and numeric and that every output check passes.  Not part of the unit
suite; run it with ``python -m pytest perfbench/test_smoke.py``.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 6, proc.stdout
