"""Runner of the layered benchmark declared in ``BENCHMARK.json``.

One workload, in this interpreter (what ``BENCHMARK.json``'s command runs)::

    python3 bench/run.py --workload cold_canned --seed 1 --seconds 25 --trace 0

prints every metric by name with its unit, then one JSON object as the last
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced (``--trace 1``).

All workloads, each in a fresh interpreter (``PYTHONHASHSEED=0``, one at a
time, so memos and peak RSS do not leak between them)::

    PYTHONPATH=src python -m bench.run [--seed S] [--traced] [--out DIR] [--record]
    PYTHONPATH=src python -m bench.run --check-repeat

See bench/README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space inside the checkout (git-ignored): cache files, span records.
SCRATCH = ROOT / ".bench_out"
TRAJECTORY = BENCH_DIR / "trajectory.jsonl"
#: Wall-clock limit of one workload run, in seconds.
RUN_TIMEOUT_S = 170

#: Per-layer counts that must repeat exactly on ``cold_*`` for one ``--seed``.
EXACT_COUNTS = (
    "whatif.service.queries",
    "core.rrs.evaluations",
    "workflow.graph.workflow_copies",
    "workflow.graph.vertex_copies",
    "workflow.graph.vertex_shell_copies",
    "workflow.graph.index_copies",
    "workflow.graph.toposort_builds",
    "whatif.model.signature_derivations",
    "core.decision_cache.hit_rate",
    "core.decision_cache.stores",
    "core.decision_cache.replayed_subunits",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def host_fingerprint() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# One workload, in this interpreter
# ---------------------------------------------------------------------------


def _pin_environment() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` and without ``STUBBY_*`` overrides.

    The optimizer reads a dozen ``STUBBY_*`` variables (cache paths, kill
    switches, backends); a run must not inherit any of them.
    """
    stray = [name for name in os.environ if name.startswith("STUBBY_")]
    if os.environ.get("PYTHONHASHSEED") == "0" and not stray:
        return
    environment = {name: value for name, value in os.environ.items() if name not in stray}
    environment["PYTHONHASHSEED"] = "0"
    os.execve(
        sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], environment
    )


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    _pin_environment()
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from bench.common import Settings

    traced = args.trace == "1"
    out_dir = Path(args.out).resolve() if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    SCRATCH.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        settings = Settings(
            workload=args.workload,
            seed=args.seed,
            seconds=float(args.seconds),
            traced=traced,
            quick=args.quick,
            work_dir=work_dir,
            out_dir=out_dir,
        )
        if args.workload.startswith("cold_"):
            from bench.cold import ColdRun

            outcome = ColdRun(settings).run()
        else:
            from bench.serve import ServeRun

            outcome = asyncio.run(ServeRun(settings).run())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = {
        metric["name"]: {"value": outcome.metrics[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if out_dir is not None:
        record = {
            "workload": args.workload,
            "traced": traced,
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "host": host_fingerprint(),
            "git_commit": git_commit(),
            "failed_share": outcome.failed / max(outcome.attempted, 1),
            "failures": outcome.failures[:20],
            "detail": outcome.detail,
            **result,
        }
        name = f"record-{args.workload}-{'traced' if traced else 'untraced'}.json"
        with open(out_dir / name, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)

    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"{args.workload} ({'traced' if traced else 'untraced'}, seed {args.seed}): "
        f"attempted {outcome.attempted}, failed {outcome.failed}"
    )
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# All workloads, each in a fresh interpreter
# ---------------------------------------------------------------------------


def _spawn(workload: str, trace: str, args: argparse.Namespace, out_dir: Path) -> Optional[dict]:
    """Run one workload in a child interpreter; returns its result line."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        trace,
        "--out",
        str(out_dir),
    ]
    if args.quick:
        command.append("--quick")
    environment = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=environment, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{workload}: exited {done.returncode} without a result", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return result


def run_set(args: argparse.Namespace, spec: dict, out_dir: Path) -> Optional[Dict[str, dict]]:
    """One run per workload and trace mode; ``None`` if any run gave no result."""
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = ("0", "1") if args.trace == "both" else (args.trace,)
    results: Dict[str, dict] = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for trace in traces:
            result = _spawn(workload, trace, args, out_dir)
            if result is None:
                return None
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(result["metrics"])
        results[workload] = merged
    return results


def run_all(args: argparse.Namespace, spec: dict) -> int:
    out_dir = Path(args.out).resolve() if args.out else SCRATCH / "latest"
    results = run_set(args, spec, out_dir)
    if results is None:
        return 1
    if args.record:
        commit = git_commit()
        host = host_fingerprint()
        with open(TRAJECTORY, "a", encoding="utf-8") as handle:
            for workload, result in results.items():
                line = {
                    "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "git_commit": commit,
                    "host": host,
                    "workload": workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                }
                handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"records and spans: {out_dir}")
    return 0 if all(result["correct"] for result in results.values()) else 1


def check_repeat(args: argparse.Namespace, spec: dict) -> int:
    """Two full sets on the same code: bounds on times, equality on counts."""
    args.trace = "both"
    base = Path(args.out).resolve() if args.out else SCRATCH / "check-repeat"
    first = run_set(args, spec, base / "first")
    second = run_set(args, spec, base / "second")
    if first is None or second is None:
        return 1
    failures = 0
    print(f"\n{'workload':<12} {'metric':<40} {'first':>13} {'second':>13} {'diff':>8}  verdict")
    for workload in first:
        a, b = first[workload], second[workload]
        if not (a["correct"] and b["correct"]):
            failures += 1
            print(f"{workload:<12} correctness check failed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            diff = abs(y - x) / abs(x)
            # Estimated costs are deterministic: for one --seed, no drop at all.
            exact = name == "plan_speedup_x"
            passed = x == y if exact else diff <= metric["bound"]
            failures += not passed
            print(
                f"{workload:<12} {name:<40} {x:>13.6g} {y:>13.6g} {diff:>8.2%}  "
                f"{'PASS' if passed else 'FAIL'} "
                f"({'exact' if exact else format(metric['bound'], '.0%')})"
            )
        if not workload.startswith("cold_"):
            continue
        for name in EXACT_COUNTS:
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            passed = x == y
            failures += not passed
            print(
                f"{workload:<12} {name:<40} {x:>13.6g} {y:>13.6g} {'':>8}  "
                f"{'PASS' if passed else 'FAIL'} (exact)"
            )
    print(f"\n{failures} failure(s)")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run this workload here (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--traced", dest="trace", action="store_const", const="1")
    parser.add_argument("--out", help="directory for result records and spans")
    parser.add_argument("--quick", action="store_true", help="tiny inputs: a smoke test")
    parser.add_argument("--record", action="store_true", help="append to bench/trajectory.jsonl")
    parser.add_argument("--check-repeat", action="store_true", help="two sets, compared")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2 if args.quick else spec["run_seconds"]
    if args.workload:
        if args.trace == "both":
            parser.error("--trace both needs every workload: omit --workload")
        return run_workload(args, spec)
    if args.check_repeat:
        return check_repeat(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
