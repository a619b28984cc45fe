"""Reach audit: which ``src/repro`` functions does no entry point run?

Run from the repository root::

    python tests/reach_audit.py            # exit 1 if an unreached def is not in KEEP
    python tests/reach_audit.py --list     # also print every unreached def, kept or not

The script writes a ``sitecustomize.py`` into a temporary directory and runs
each entry point in a fresh interpreter with that directory first on
``PYTHONPATH``.  The hook records the code object of every Python function
entered, through ``sys.setprofile`` and ``threading.setprofile``; it wraps
``os._exit`` so that a forked pool worker also writes what it recorded, and
``cProfile.Profile.disable`` so that a ``cProfile`` pass (which replaces the
hook while it runs) hands its own calls over and the hook goes back in.  The
entry points are the five ``examples/``, ``bench/run.py --quick`` for every
workload with tracing off and on, and the paper figures (``pytest
benchmarks --benchmark-disable``).  Tests are deliberately not an entry
point: a function only a test calls is what this audit looks for.

Every ``def`` in ``src/repro`` that no entry point entered must be named in
:data:`KEEP` with one of the :data:`REASONS`; anything else is dead code and
the script exits 1.  The recorder counts function entries, not lines, so a
branch inside a reached function is not seen; a ``KEEP`` entry that the run
did reach is printed as a note, not an error, since fault paths are reached
or not by timing.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Why an unreached function stays.
REASONS = {
    "safety": "a fault, deadline, worker-death, shed, breaker, withdrawal or "
    "fallback path, or the reporting of a failure",
    "oracle": "a reference that a test compares the production path against",
    "bench": "a name that bench/ reads or bench/tracing.py wraps by name",
    "catalog": "sub-result reuse, which stays or goes as a whole (ROADMAP item 17)",
    "verification": "the differential-verification package: test infrastructure by design",
    "interface": "an abstract method, its implementation, a protocol method or a __repr__",
}

#: ``module:qualname`` of a function, or a module or package name (every
#: function in it) -> reason.
KEEP: Dict[str, str] = {
    # Deadlines, injected faults and the failures they raise.
    "repro.common.errors:DeadlineExceeded.__init__": "safety",
    "repro.common.faults:active_plan": "safety",
    "repro.common.faults:set_active_plan": "safety",
    "repro.core.budget:TimeBudget.expired": "safety",
    "repro.core.budget:TimeBudget.remaining": "safety",
    # What records_equal reports when two outputs differ.
    "repro.common.records:_approximately_equal": "safety",
    "repro.common.records:_record_from_canonical": "safety",
    # A stale or short decision: dropped, counted a miss, searched again;
    # a unit whose every candidate failed to cost stores the no-op choice.
    "repro.common.store:ShardedLRU.discard": "safety",
    "repro.core.decision_cache:DecisionCache.count_miss": "safety",
    "repro.core.decision_cache:DecisionCache.invalidate_key": "safety",
    "repro.core.decision_cache:SubunitChoice.no_op": "safety",
    # Worker death, and the workload registered after the fork.
    "repro.core.parallel:Session._mark_dead": "safety",
    "repro.core.parallel:Session.forked": "safety",
    # Rejection, withdrawal, shedding, the breaker and the last rung.
    "repro.service.admission:AdmissionRejected.__init__": "safety",
    "repro.service.admission:AdmissionQueue.remove": "safety",
    "repro.service.degradation:CircuitBreaker.record_failure": "safety",
    "repro.service.degradation:CircuitBreaker._trip": "safety",
    "repro.service.server:_Ticket.cancelled": "safety",
    "repro.service.server:_Ticket.response": "safety",
    "repro.service.server:PlanningServer._resolve_error": "safety",
    "repro.service.server:PlanningServer._shed_ticket": "safety",
    "repro.service.server:PlanningServer._unoptimized_result": "safety",
    # The profile-free job-count estimate, a sample walked without a base,
    # and a sample walk that starts over.
    "repro.whatif.jobmodel:JobTimeEstimate.total_s": "safety",
    "repro.whatif.model:WhatIfEngine.job_count_estimate": "safety",
    "repro.whatif.service:OverlaySession._bind": "safety",
    "repro.whatif.service:OverlaySession.objective.<locals>.walked": "safety",
    # The cold uncached walk the cost service is held to, the replay check
    # against a fresh search, the built-directly history record, the ledger
    # sums and deltas, the size tests/key_oracle.py recounts with, and the
    # serial pool every other pool's answers are compared with.
    "repro.common.records:record_size_bytes": "oracle",
    "repro.common.store:CounterStats.since": "oracle",
    "repro.core.search:StubbySearch._verify_replay": "oracle",
    "repro.core.transformations.configuration:ConfigurationTransformation.application_for": "oracle",
    "repro.service.server:PlanningServer._on_inline_done": "oracle",
    "repro.service.server:PlanningServer._run_inline": "oracle",
    "repro.service.stats:ServiceStats.total": "oracle",
    "repro.whatif.model:WhatIfEngine.cost_vertex": "oracle",
    "repro.whatif.model:WhatIfEngine.estimate_workflow": "oracle",
    # Wrapped by bench/tracing.py; they go with the next benchmark change.
    "repro.whatif.jobmodel:estimate_job_time": "bench",
    "repro.whatif.scheduling:level_terms": "bench",
    "repro.whatif.scheduling:workflow_makespan": "bench",
    "repro.core.subresults": "catalog",
    "repro.core.transformations.reuse": "catalog",
    "repro.dfs.dataset:Dataset.content_fingerprint": "catalog",
    "repro.experiments.harness:ExperimentHarness.register_workload_subresults": "catalog",
    "repro.verification": "verification",
    "repro.baselines.base:BaselineOptimizer._optimize_plan": "interface",
    "repro.core.transformations.base:Transformation.apply": "interface",
    "repro.core.transformations.base:Transformation.find_applications": "interface",
    "repro.core.transformations.configuration:ConfigurationTransformation.apply": "interface",
    "repro.core.transformations.configuration:ConfigurationTransformation.find_applications": "interface",
    "repro.service.server:PlanningServer.__aenter__": "interface",
    "repro.service.server:PlanningServer.__aexit__": "interface",
    "repro.common.store:ShardedStore.__repr__": "interface",
    "repro.core.budget:TimeBudget.__repr__": "interface",
    "repro.core.plan:Plan.__repr__": "interface",
    "repro.core.transformations.base:Transformation.__repr__": "interface",
    "repro.dfs.dataset:Dataset.__repr__": "interface",
    "repro.mapreduce.job:MapReduceJob.__repr__": "interface",
    "repro.service.degradation:CircuitBreaker.__repr__": "interface",
    "repro.workflow.graph:Workflow.__repr__": "interface",
}

# ------------------------------------------------------------------ recorder
HOOK = r'''
import atexit, os, sys, threading

_seen = set()
_add = _seen.add
_out = os.environ["REACH_AUDIT_OUT"]
_src = os.environ["REACH_AUDIT_SRC"]


def _hook(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    while True:  # another thread may still be adding
        try:
            codes = list(_seen)
            break
        except RuntimeError:
            pass
    rows = {
        (code.co_filename, code.co_firstlineno)
        for code in codes
        if code.co_filename.startswith(_src)
    }
    with open(os.path.join(_out, "reach-%d.txt" % os.getpid()), "a") as handle:
        handle.writelines("%s\t%d\n" % row for row in sorted(rows))


_real_exit = os._exit


def _exit(status):
    _dump()
    _real_exit(status)


os._exit = _exit
atexit.register(_dump)


def _install_cprofile_handover():
    import cProfile

    disable = cProfile.Profile.disable

    def handover(self):
        disable(self)
        for entry in self.getstats():
            if not isinstance(entry.code, str):
                _add(entry.code)
        sys.setprofile(_hook)

    cProfile.Profile.disable = handover


_install_cprofile_handover()
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def entry_points(out: Path) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every entry point, each run from the repo root."""
    python = sys.executable
    runs = [
        (f"examples/{name}", [python, f"examples/{name}"])
        for name in sorted(os.listdir(ROOT / "examples"))
        if name.endswith(".py")
    ]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in ("0", "1"):
            runs.append(
                (
                    f"bench {workload} --trace {trace}",
                    [python, "bench/run.py", "--workload", workload, "--quick",
                     "--trace", trace, "--out", str(out / f"bench-{workload}-{trace}")],
                )
            )
    runs.append(
        (
            "pytest benchmarks",
            [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
             "--benchmark-disable"],
        )
    )
    return runs


def record(workdir: Path) -> Set[Tuple[str, int]]:
    """Run every entry point under the hook; ``(relative file, first line)`` reached."""
    hook_dir = workdir / "hook"
    dumps = workdir / "reach"
    hook_dir.mkdir()
    dumps.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(hook_dir), str(SRC), env.get("PYTHONPATH")])
    )
    env["REACH_AUDIT_SRC"] = str(PACKAGE)
    for index, (label, argv) in enumerate(entry_points(workdir)):
        out = dumps / str(index)
        out.mkdir()
        env["REACH_AUDIT_OUT"] = str(out)
        started = time.perf_counter()
        run = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        # A failing hook shows only on stderr ("Exception ignored in atexit
        # callback"), with sitecustomize.py in its traceback.
        if run.returncode != 0 or not any(out.iterdir()) or "sitecustomize" in run.stderr:
            sys.stderr.write(run.stdout[-3000:] + run.stderr[-3000:])
            raise SystemExit(f"entry point failed or recorded nothing: {label}")
        print(f"  ran {label:<40} {elapsed:6.1f} s")
    reached = set()
    for dump in dumps.glob("*/reach-*.txt"):
        for line in dump.read_text().splitlines():
            filename, first = line.split("\t")
            reached.add((str(Path(filename).relative_to(SRC)), int(first)))
    return reached


# --------------------------------------------------------------- definitions
def definitions() -> List[Tuple[str, str, str, int, int]]:
    """``(module, qualname, relative file, first line, lines)`` of every def.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line where there is one."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(SRC))
        module = relative[: -len(".py")].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    found.append(
                        (module, qualname, relative, first, child.end_lineno - first + 1)
                    )
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def keep_reason(module: str, qualname: str):
    """The :data:`KEEP` reason covering ``module:qualname``, or ``None``."""
    reason = KEEP.get(f"{module}:{qualname}")
    if reason is not None:
        return reason
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        reason = KEEP.get(".".join(parts[:end]))
        if reason is not None:
            return reason
    return None


def stale_keep_entries() -> List[str]:
    """``KEEP`` keys that name no def (or no module holding one) in ``src/repro``,
    and entries whose reason is not one of :data:`REASONS`."""
    defs = definitions()
    names = {f"{module}:{qualname}" for module, qualname, *_ in defs}
    modules = {module for module, *_ in defs}
    stale = []
    for key, reason in KEEP.items():
        if reason not in REASONS:
            stale.append(f"{key} (unknown reason {reason!r})")
        elif ":" in key:
            if key not in names:
                stale.append(key)
        elif not any(m == key or m.startswith(key + ".") for m in modules):
            stale.append(key)
    return stale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print every unreached def")
    args = parser.parse_args(argv)
    stale = stale_keep_entries()
    if stale:
        print("KEEP names no such def:\n  " + "\n  ".join(stale))
        return 1
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as workdir:
        reached = record(Path(workdir))
    defs = definitions()
    unreached = [d for d in defs if (d[2], d[3]) not in reached]
    kept: Dict[str, List[Tuple[str, int]]] = {reason: [] for reason in REASONS}
    dead = []
    for module, qualname, _, _, lines in unreached:
        reason = keep_reason(module, qualname)
        (kept[reason] if reason else dead).append((f"{module}:{qualname}", lines))
    kept_reached = sorted(
        f"{module}:{qualname}"
        for module, qualname, relative, first, _ in defs
        if (relative, first) in reached and f"{module}:{qualname}" in KEEP
    )
    print(
        f"\n{len(defs)} functions ({sum(d[4] for d in defs)} lines) in src/repro; "
        f"{len(unreached)} unreached ({sum(d[4] for d in unreached)} lines)"
    )
    for reason, entries in kept.items():
        print(f"  kept, {reason:<13} {len(entries):4d} ({sum(n for _, n in entries)} lines)")
        if args.list:
            for name, lines in entries:
                print(f"      {name} ({lines})")
    for name in kept_reached:
        print(f"  note: reached but in KEEP: {name}")
    if dead:
        print(f"\n{len(dead)} unreached and not in KEEP ({sum(n for _, n in dead)} lines):")
        for name, lines in dead:
            print(f"  {name} ({lines})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
