"""Every script under ``examples/`` runs to completion against this tree.

The examples are documentation that executes: each one is run the way its
docstring says (``PYTHONPATH=src python examples/<name>.py``) in a fresh
interpreter, must exit 0, and must leave the git working tree as it found it.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(
    name for name in os.listdir(os.path.join(ROOT, "examples")) if name.endswith(".py")
)


def _tree_status():
    """``git status --porcelain`` of the checkout, or ``None`` outside one."""
    if shutil.which("git") is None:
        return None
    status = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    return status.stdout if status.returncode == 0 else None


def test_every_example_is_collected():
    assert len(EXAMPLES) == 5, EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    before = _tree_status()
    run = subprocess.run(
        [sys.executable, os.path.join("examples", name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert run.stdout.strip(), f"{name} printed nothing"
    assert _tree_status() == before
