"""The repository's own bookkeeping: what is tracked and what is ignored agree,
``src/`` carries no mode switches, and the documented ``STUBBY_*`` variables
are exactly the ones ``src/`` reads.

A file that is both tracked and matched by ``.gitignore`` is rewritten by a
test or benchmark run *and* committed — so the tier-1 gate dirties the tree
and every commit carries timing noise (the six per-bench JSON files this test
was added for; ISSUE 17 retired their writers, and ``bench/run.py`` is the
only thing left that times anything).
"""

import os
import re
import shutil
import subprocess
import sys

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


def _sources(top, suffixes=(".py",)):
    """(repo-relative path, text) of every ``suffixes`` file under ``top``."""
    for folder, _dirs, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(suffixes):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    yield os.path.relpath(path, ROOT), handle.read()


def _src_sources():
    return _sources("src")


def test_src_has_no_mode_switches():
    """ISSUE 13 retired the process-wide ``set_*_enabled`` switches and the
    cell-dispatch option, ISSUE 14 the thread pool, the per-session dispatch
    mode and the batched RRS objective, ISSUE 15 the stats window, the LRU
    striping, the server's own optimizer factory and the one-line
    ``ensure_*`` / ``resolve_*_path`` aliases of ``ShardedStore.ensure`` /
    ``resolve_env_path``, ISSUE 16 the in-search fork path with its
    variable, its constructor arguments and the backend registry, ISSUE 18
    the cost service's per-sample estimate level with its second key, its
    second LRU and the compaction knob, ISSUE 19 the copy-on-write
    ownership protocol (plan values are frozen, an edit rebinds a name); a
    path that needs a baseline keeps it under tests/."""
    banned = re.compile(
        r"def set_\w+_enabled|STUBBY_EXPERIMENT_DISPATCH"
        r"|ThreadPoolExecutor|dispatch=|objective_batch"
        # Split literals: this file must not match its own ban when grepped.
        r"|Stats" r"Window|CACHE_" r"STRIPES|build_" r"variant"
        r"|def ensure_\w+|def resolve_(?!env_)\w+_path"
        r"|STUBBY_SEARCH_" r"BACKEND|search_" r"backend|experiment_" r"backend"
        r"|_cost_" r"tasks|DEFAULT_" r"WORKERS|available_" r"backends"
        r"|_dataflow_" r"cache|jobmodel_" r"config_key|vertex_cost_" r"signature"
        r"|resolve_cache_" r"max_entries|STUBBY_COST_CACHE_" r"MAX_ENTRIES"
        r"|mutate_" r"job|mutate_" r"vertex|copy_" r"job|dirty_" r"jobs"
        r"|_borrowed_" r"jobs|_shared_" r"jobs|_shared_" r"datasets"
    )
    assert [path for path, text in _src_sources() if banned.search(text)] == []
    # One fan-out level: requests and cells fork, the unit search does not.
    pool_import = re.compile(
        r"^\s*(from|import) repro\.core\.parallel|^\s*from repro\.core import .*\bparallel",
        re.MULTILINE,
    )
    serial = ("src/repro/core/search.py", "src/repro/core/optimizer.py", "src/repro/baselines/")
    assert [
        path
        for path, text in _src_sources()
        if path.replace(os.sep, "/").startswith(serial) and pool_import.search(text)
    ] == []


def test_no_test_indexes_a_worker_result_by_constant():
    """A worker result is a typed ``_Outcome``: nothing under tests/ or
    benchmarks/ defines ``OK_*`` slot numbers to read it positionally."""
    slots = re.compile(r"\bOK_\w+ *=")
    offenders = [
        path
        for top in ("tests", "benchmarks")
        for path, text in _sources(top)
        if slots.search(text)
    ]
    assert offenders == []


#: Rows of the docs/index.md environment-variable table: name, owner module.
ENV_TABLE_ROW = re.compile(r"^\| `(STUBBY_[A-Z_]+)` \| `(repro[\w.]+)` \|", re.MULTILINE)


def test_env_var_table_lists_exactly_the_variables_src_reads():
    """docs/index.md's table is the one reference: a ninth ``STUBBY_*``
    variable (or a retired one left behind) fails here, not in a reader."""
    readers = {}
    for path, text in _src_sources():
        for literal in re.findall(r"STUBBY_[A-Z_]+", text):
            readers.setdefault(literal, set()).add(path)
    with open(os.path.join(ROOT, "docs", "index.md"), encoding="utf-8") as handle:
        table = dict(ENV_TABLE_ROW.findall(handle.read()))
    assert set(table) == set(readers)
    for variable, module in table.items():
        owner = os.path.join("src", *module.split(".")) + ".py"
        assert owner in readers[variable], f"{module} never names {variable}"


def test_benchmarks_holds_only_the_paper_reproductions():
    """One benchmark tree: ``benchmarks/`` reproduces the paper's figures and
    Table 1; everything that times the system lives in ``bench/``."""
    allowed = re.compile(r"conftest\.py|test_fig\d+_\w+\.py|test_table\d+_\w+\.py")
    names = set(os.listdir(os.path.join(ROOT, "benchmarks"))) - {"__pycache__"}
    assert sorted(name for name in names if not allowed.fullmatch(name)) == []


def test_no_retired_bench_knob_or_json_is_named_anywhere():
    """The 18 per-bench environment knobs and eight per-bench JSON files of
    the retired tree stay retired (``BENCHMARK.json`` and ``BENCHMARK_SCALE``
    carry no underscore after ``BENCH`` and do not match)."""
    # Split literal: this file must not match its own ban when grepped.
    retired = re.compile(r"BENCH" r"_[A-Za-z_]+")
    tops = ("src", "tests", "benchmarks", "examples", "docs", ".github")
    texts = [
        item for top in tops for item in _sources(top, (".py", ".md", ".yml"))
    ]
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        texts.append(("README.md", handle.read()))
    assert [path for path, text in texts if retired.search(text)] == []


def _pytest_subprocess(args, extra_env):
    env = {**os.environ, **extra_env}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_ambient_path_variables_never_reach_the_suites(tmp_path):
    """README's quick-start exports ``STUBBY_COST_CACHE`` and
    ``STUBBY_EXPERIMENT_BACKEND``; with them in the shell the orchestration
    tests used to warm-start one harness from the file the previous one
    persisted (``assert 3 == 787``) and leave 550 kB at the user's path."""
    targets = {
        "STUBBY_COST_CACHE": str(tmp_path / "costs.cache"),
        "STUBBY_DECISION_CACHE": str(tmp_path / "decisions.cache"),
        "STUBBY_SUBRESULT_CATALOG": str(tmp_path / "subresults.cache"),
        "STUBBY_EXPERIMENT_BACKEND": "process:4",
    }
    run = _pytest_subprocess(["tests/test_experiment_orchestration.py"], targets)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(
    "STUBBY_DECISION_CACHE_ENABLED" not in os.environ,
    reason="probe: the test below runs it with the switch exported",
)
def test_probe_default_decision_cache_obeys_the_exported_kill_switch():
    from repro.cluster import ClusterSpec
    from repro.core.decision_cache import DecisionCache

    # CI and the test below export "0" or "1", nothing fancier.
    assert DecisionCache(ClusterSpec.paper_cluster()).enabled == (
        os.environ["STUBBY_DECISION_CACHE_ENABLED"] != "0"
    )


def test_kill_switch_set_outside_pytest_still_reaches_the_library():
    """The scrub above must not eat what the nightly CI sets on purpose."""
    name = test_probe_default_decision_cache_obeys_the_exported_kill_switch.__name__
    probe = f"tests/test_repo_hygiene.py::{name}"
    for exported in ("0", "1"):
        run = _pytest_subprocess([probe], {"STUBBY_DECISION_CACHE_ENABLED": exported})
        assert run.returncode == 0 and "1 passed" in run.stdout, run.stdout[-2000:]
