"""The repository's own bookkeeping: what is tracked and what is ignored agree.

A file that is both tracked and matched by ``.gitignore`` is rewritten by a
test or benchmark run *and* committed — so the tier-1 gate dirties the tree
and every commit carries timing noise (the six ``BENCH_*.json`` this test
was added for).
"""

import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60
    )


def test_no_tracked_file_is_gitignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    toplevel = _git("rev-parse", "--show-toplevel")
    checkout = os.path.realpath(toplevel.stdout.strip()) if toplevel.returncode == 0 else None
    if checkout != os.path.realpath(ROOT):
        pytest.skip("not running from this repository's git checkout")
    listing = _git("ls-files", "-ci", "--exclude-standard")
    assert listing.returncode == 0, listing.stderr
    assert listing.stdout.split() == [], "tracked files matched by .gitignore"
