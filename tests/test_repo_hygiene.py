"""The repository's own bookkeeping: what is tracked and what is ignored agree,
``src/`` carries no mode switches, and the documented ``STUBBY_*`` variables
are exactly the ones ``src/`` reads.

A file that is both tracked and matched by ``.gitignore`` is rewritten by a
test or benchmark run *and* committed — so the tier-1 gate dirties the tree
and every commit carries timing noise (the six per-bench JSON files this test
was added for; ISSUE 17 retired their writers, and ``bench/run.py`` is the
only thing left that times anything).
"""

import ast
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
    """Retired switches stay retired: the process-wide ``set_*_enabled``
    switches and the cell-dispatch option; the thread pool, the per-session
    dispatch mode and the batched RRS objective; the stats window, the LRU
    striping, the server's own optimizer factory and the one-line
    ``ensure_*`` / ``resolve_*_path`` aliases of ``ShardedStore.ensure`` /
    ``resolve_env_path``; the in-search fork path with its variable, its
    constructor arguments and the backend registry; the cost service's
    per-sample estimate level with its second key, its second LRU and the
    compaction knob; the copy-on-write ownership protocol (plan values are
    frozen, an edit rebinds a name); the two store kill switches and the
    cell-backend variable with their readers, and the settable values
    nothing set; the topology index's sharing protocol (``_topo_shared``,
    ``_topology_for_mutation``, ``incremental_updates``: an edge-moving
    edit drops the index) and the graph layer's test-only API
    (``scan_equivalents``, ``remove_dataset``, ``classify_pair``); the
    what-if engine's three identity tables, their caps and builders (a
    vertex's content key is a ``cached_property`` on the vertex).  A path
    that needs a baseline keeps it under tests/."""
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
        r"|resolve_env_" r"flag|_ENABLED_" r"ENV_VAR|CACHE_" r"ENABLED|CATALOG_" r"ENABLED"
        r"|EXPERIMENT_" r"BACKEND|env_" r"var="
        r"|allow_extended_" r"horizontal|enable_" r"multiquery|target_records_" r"per_split"
        r"|profile_" r"noise|\bmax_" r"samples\b|\bmax_" r"batch\b|breaker_max_" r"backoff"
        r"|chosen_" r"transformations|all_" r"operators|def wall_" r"s\b"
        r"|_topo_" r"shared|_topology_for_" r"mutation|incremental_" r"updates"
        r"|scan_" r"equivalents|remove_" r"dataset|classify_" r"pair"
        r"|_vertex_" r"keys|_pipeline_" r"keys|_profile_" r"keys"
        r"|_MAX_VERTEX_" r"KEYS|_MAX_PROFILE_" r"KEYS|_vertex_local_" r"key|_PipelineLocal" r"Key"
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


def test_src_keeps_no_identity_table():
    """Nothing under src/ calls the builtin ``id()``: what describes a frozen
    value is a ``cached_property`` on it, never a table keyed by identity."""
    calls = [
        f"{path}:{node.lineno}"
        for path, text in _src_sources()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    ]
    assert calls == []


def test_src_keeps_nothing_between_calls_in_a_functools_cache():
    """Nothing under src/ uses ``functools.lru_cache`` or ``functools.cache``:
    a set-up memo (a Zipf table, a placement) lives on its generator, shuffle
    or load, so every build pays for a whole set-up."""
    cached = {"lru_cache", "cache"}
    uses = [
        f"{path}:{node.lineno}"
        for path, text in _src_sources()
        for node in ast.walk(ast.parse(text))
        if (isinstance(node, ast.Attribute) and node.attr in cached
            and isinstance(node.value, ast.Name) and node.value.id == "functools")
        or (isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(alias.name in cached for alias in node.names))
    ]
    assert uses == []


def test_a_store_event_has_one_count():
    """A store's attributed ledger (``cost_stats`` / ``decision_stats`` /
    ``subresult_stats``) is the only count of its events: no result type
    copies or re-sums one, and the test-only API that went with the copies
    (``persist_cache``, the layout and partition-function ``with_*`` helpers,
    ``relayout``, ``distinct_count``, ``iterate``, ``total_memory_mb``) stays
    gone.  Eliminated jobs are credited by ``optimize()`` alone."""
    banned = re.compile(
        # Split literals: this file must not match its own ban when grepped.
        r"cross_unit_" r"hits|cross_origin_subresult_" r"hits|cost_" r"queries"
        r"|jobs_" r"recosted|_attribute_unit_" r"stats|decision_hit_" r"rate"
        r"|persist_" r"cache|with_split_" r"points|with_" r"partitioning"
        r"|with_" r"compression|with_sort_" r"fields|def re" r"layout"
        r"|def distinct_" r"count\b|def it" r"erate|total_memory_" r"mb"
    )
    assert [path for path, text in _src_sources() if banned.search(text)] == []
    # Names that survive on exactly one class: the per-unit decision outcome,
    # the final plan's reuse facts and the frozen bench's query alias.
    owners = {
        "unit_decision_hits": {"UnitReport"},
        "unit_decision_misses": {"UnitReport"},
        "cross_origin_decision_hits": {"UnitReport"},
        "jobs_eliminated_by_reuse": {"OptimizationResult"},
        "whatif_queries": {"OptimizationResult"},
        "cache_hit_rate": {"CostServiceStats"},
    }
    declared = {name: set() for name in owners}
    credits = []
    for path, text in _src_sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        name = item.name
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                    else:
                        continue
                    if name in declared:
                        declared[name].add(node.name)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record_jobs_eliminated"
            ):
                credits.append(path.replace(os.sep, "/"))
    assert declared == owners
    assert credits == ["src/repro/core/optimizer.py"]


def test_one_pool_one_session():
    """``core/parallel.py`` is one ``Pool(spec)`` opening ``Session`` s over
    the stores: the backend hierarchy, its resolvers and the side channel
    stay gone, and so do the declared per-request cost weights and the
    test-only API that went with them (the transformation group metadata,
    ``execute_plan``, the execution result's order and counter totals,
    ``variant_name``, the filesystem's ``delete``)."""
    banned = re.compile(
        # Split literals: this file must not match its own ban when grepped.
        r"Serial" r"Backend|Process" r"Backend|Execution" r"Backend|Backend" r"Session"
        r"|Side" r"Channel|store_side_" r"channel|create_" r"backend|resolve_" r"backend"
        r"|cost_" r"weight|cell_" r"costs|_request_" r"loads"
        r"|Transformation" r"Group|VERTICAL_" r"GROUP|HORIZONTAL_" r"GROUP"
        r"|execute_" r"plan|execution_" r"order|total_" r"counters|variant_" r"name"
        r"|def de" r"lete\b"
    )
    texts = [*_sources("src"), *_sources("examples"), *_sources("docs", (".md",))]
    assert [path for path, text in texts if banned.search(text)] == []


def test_test_support_lives_under_tests():
    """The fixed shapes only tests build — the small multi-wave cluster and
    the diamond shared-sink workflow — are ``tests/conftest.py`` helpers, not
    library presets."""
    banned = re.compile(
        # Split literals: this file must not match its own ban when grepped.
        r"small_test_" r"cluster|diamond_shared_" r"sink"
    )
    texts = [*_sources("src"), *_sources("examples"), *_sources("docs", (".md",))]
    assert [path for path, text in texts if banned.search(text)] == []


def test_whatif_adds_floats_left_to_right():
    """No builtin ``sum()`` under src/repro/whatif/: from Python 3.12 on it
    compensates float rounding and can return other bits than 3.11, so
    estimates sum through ``repro.common.left_sum`` (or an explicit loop)."""
    whatif = os.path.join("src", "repro", "whatif")
    calls = [
        f"{path}:{node.lineno}"
        for path, text in _sources(whatif)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert calls == []


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


def test_only_two_functions_read_the_environment():
    """``os.environ`` is read by the one path resolver the persisting owners
    call and by the fault-plan parser; every other object sees only its
    arguments (``tests/test_ambient_environment.py`` drives the same rule)."""
    readers = set()
    for path, text in _src_sources():
        module = os.path.splitext(os.path.relpath(path, "src"))[0].replace(os.sep, ".")
        tree = ast.parse(text)
        functions = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            reads = (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "environb", "getenv")
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and {alias.name for alias in node.names} & {"environ", "environb", "getenv"}
            )
            if not reads:
                continue
            enclosing = [
                f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno
            ]
            readers.add(f"{module}.{enclosing[-1] if enclosing else '<module>'}")
    assert readers == {
        "repro.common.store.resolve_env_path",
        "repro.verification.faults.plan_from_env",
    }


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
    """README's quick-start exports ``STUBBY_COST_CACHE``; with it in the
    shell the orchestration tests used to warm-start one harness from the
    file the previous one persisted (``assert 3 == 787``) and leave 550 kB
    at the user's path."""
    targets = {
        "STUBBY_COST_CACHE": str(tmp_path / "costs.cache"),
        "STUBBY_DECISION_CACHE": str(tmp_path / "decisions.cache"),
        "STUBBY_SUBRESULT_CATALOG": str(tmp_path / "subresults.cache"),
    }
    run = _pytest_subprocess(["tests/test_experiment_orchestration.py"], targets)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert os.listdir(tmp_path) == []



def test_every_reach_audit_keep_entry_names_a_def():
    """``tests/reach_audit.py`` keeps an unreached function by name, with a
    reason; an entry whose def was deleted or renamed keeps nothing and only
    hides the next function to take its name.  Checked without running the
    recorder."""
    from tests import reach_audit

    assert reach_audit.stale_keep_entries() == []


def test_reach_audit_finds_each_def_at_its_code_objects_first_line():
    """The recorder reports a code object's ``co_firstlineno``; the audit
    matches it with the line it reads off each ``def`` (the first decorator's
    where there is one).  Every module-level function and method must agree,
    or a reached function would read as unreached."""
    import importlib

    from tests import reach_audit

    checked = 0
    for module, qualname, _file, first, _lines in reach_audit.definitions():
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = vars(owner).get(part) if hasattr(owner, "__dict__") else None
            if isinstance(owner, (staticmethod, classmethod)):
                owner = owner.__func__
            elif isinstance(owner, property):
                owner = owner.fget
            elif hasattr(owner, "func") and hasattr(owner, "attrname"):  # cached_property
                owner = owner.func
        code = getattr(getattr(owner, "__wrapped__", owner), "__code__", None)
        if code is not None and code.co_name == qualname.rsplit(".", 1)[-1]:
            assert code.co_firstlineno == first, f"{module}:{qualname}"
            checked += 1
    assert checked > 700
