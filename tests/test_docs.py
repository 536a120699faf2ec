"""The README's python block and the demos run to completion, the
README's per-command config keys match the CLI's key table, and the
package exports what its version says.

Each runs in a fresh interpreter against the checkout's ``src``, as a
reader would run it.  The demos take up to about half a minute each.
"""

import argparse
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import remsense
from remsense import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_two_ray_link.py", "02_shadow_recovery.py", "03_deep_shadow.py",
         "04_calibration_eval.py")
# name -> the module it was defined in, for each name removed in 0.2.0
RETIRED = {
    "ok_predict": "kriging", "sk_predict": "kriging", "tg_predict": "kriging",
    "select_neighbors": "kriging", "_predict_in_ball": "kriging",
    "_ball": "kriging",
    "NoNeighbors": "errors", "gpr_predict": "gpr",
    "mc_assisted_predict": "completion", "vertical_distance": "geo",
    "correlation": "shadowing", "covariance": "shadowing",
    "semivariogram": "shadowing", "_pair_lags": "shadowing",
    "estimate_sigma": "shadowing",
}


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


def test_exports_and_version():
    """Each ``__all__`` name is listed once and resolves, no retired name
    is left in the package or in its old module, and ``__version__`` is
    pyproject.toml's version."""
    names = remsense.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(remsense, name)
    for name, module in RETIRED.items():
        assert not hasattr(remsense, name), name
        assert not hasattr(importlib.import_module(f"remsense.{module}"),
                           name), f"remsense.{module}.{name}"
    declared = re.search(r'^version = "([^"]+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.M)
    assert remsense.__version__ == declared.group(1)
