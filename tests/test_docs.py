"""The README's python block and the demos run to completion.

Each runs in a fresh interpreter against the checkout's ``src``, as a
reader would run it.  The demos take up to about half a minute each.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_two_ray_link.py", "02_shadow_recovery.py", "03_deep_shadow.py",
         "04_calibration_eval.py")


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for code in blocks:
        proc = _run(["-c", code])
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = _run([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
