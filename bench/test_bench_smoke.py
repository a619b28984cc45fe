"""Smoke test of the benchmark runner, collected by the tier-1 suite.

Runs every workload once with ``--quick`` (tiny inputs, traced and untraced)
and checks the runner against its own declaration in ``BENCHMARK.json``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _git_status():
    """``git status --porcelain`` of the repository, or ``None`` outside git."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def test_quick_run_emits_every_declared_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status_before = _git_status()

    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--trace", "both"]
        + ["--out", str(tmp_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr

    for workload in spec["workloads"]:
        for mode, declared in (("untraced", spec["end_to_end"]), ("traced", spec["per_layer"])):
            record = json.loads((tmp_path / f"record-{workload['name']}-{mode}.json").read_text())
            context = f"{workload['name']} {mode}"
            assert record["correct"] and record["failed_share"] == 0, context
            assert record["attempted"] >= 1, context
            units = {metric["name"]: metric["unit"] for metric in declared}
            assert set(record["metrics"]) == set(units), context
            for name, metric in record["metrics"].items():
                assert NAME.fullmatch(name), name
                assert metric["unit"] == units[name], name
                assert isinstance(metric["value"], (int, float)), name
            if mode == "untraced":
                assert all(metric["value"] > 0 for metric in record["metrics"].values()), context
            else:
                # Span self times against the bench's own clock: the 5 % rule.
                assert record["detail"]["span_reconciliation_error"] <= 0.05, context
                assert (tmp_path / f"spans-{workload['name']}.jsonl").stat().st_size > 0

    assert _git_status() == status_before, "the benchmark run changed the working tree"
