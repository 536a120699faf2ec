"""The README's python block and the demos run to completion, and the
README's per-command config keys match the CLI's key table.

Each runs in a fresh interpreter against the checkout's ``src``, as a
reader would run it.  The demos take up to about half a minute each.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from remsense import cli

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


def test_readme_key_table_matches_the_cli():
    """Each command row lists exactly the keys ``cli._COMMAND_KEYS`` gives
    that command, each with the flag that overrides it there."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    seen = set()
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = line.split(" | ")
        if not line.startswith("| `") or len(cells) != 3:
            continue
        pairs = set(re.findall(r"`([a-z_]+)`(?: \(`(-[-\w]+)`)?", cells[1]))
        for command in re.findall(r"`([a-z-]+)`", cells[0]):
            if command == "synth":
                continue
            flags = {a.dest: a.option_strings[0]
                     for a in subparsers[command]._actions}
            expected = {(key, flags.get(cli._KEYS[key][0], ""))
                        for key in cli._COMMAND_KEYS[command]}
            assert pairs == expected, command
            seen.add(command)
    assert seen == set(cli._COMMAND_KEYS)
