"""Guards on the tooling itself: nothing ``Makefile`` or
``scripts/check.sh`` names may be missing and ``make check`` stays
pytest only; ``src/`` grows no literal clones, no function nothing
names and no numpy import outside the erasure kernel, and imports no
third-party package but its one declared dependency; report markup is
written in one module; the host clock is read in four files;
``bench_regress.py`` gates facts by equality and ``--run`` isolates
each bench; every method the platform benchmark patches is defined
where it looks for it."""

import ast
import functools
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
MAKEFILE = (REPO / "Makefile").read_text(encoding="utf-8")
CHECK_SH = (REPO / "scripts" / "check.sh").read_text(encoding="utf-8")

REPO_PATH = re.compile(r"\b(?:scripts|benchmarks|tests)/[\w./-]*")


def test_every_named_path_exists():
    named = {match.rstrip("./") for text in (MAKEFILE, CHECK_SH)
             for match in REPO_PATH.findall(text)}
    assert "scripts/check.sh" in named  # the pattern really finds paths
    assert "benchmarks/platform/tests" in named
    missing = sorted(path for path in named if not (REPO / path).exists())
    assert not missing, f"Makefile/check.sh name missing paths: {missing}"


def test_phony_names_and_rules_match():
    joined = MAKEFILE.replace("\\\n", " ")
    phony = set(re.search(r"^\.PHONY:(.*)$", joined, re.M).group(1).split())
    rules = set(re.findall(r"^([A-Za-z][\w-]*):(?!=)", MAKEFILE, re.M))
    assert phony and phony == rules


def test_check_runs_only_pytest():
    assert not re.search(r"scripts/\S+\.py", CHECK_SH)
    python = re.findall(r"^[^#\n]*?\b(python\b.*)$", CHECK_SH, re.M)
    # Tier-1 with and without coverage, then the harness self-tests;
    # the only other python is the probe for the coverage plugin.
    assert sorted(line.split(" >")[0] for line in python) == [
        'python -c "import pytest_cov"',
        "python -m pytest -x -q",
        "python -m pytest -x -q --cov=repro "
        "--cov-report=term-missing:skip-covered",
        "python -m pytest benchmarks/platform/tests -q",
    ]


# -- literal clones in src/ --------------------------------------------------

CLONE_WINDOW = 7        # normalised code lines per window
CLONE_MIN_CHARS = 160   # shorter windows are boilerplate, not logic
# The most windows any pair of files (or one file with itself) may
# share. What is left at this bound is within single files
# (webdav/server.py, workloads/fleet.py); no two files share more than
# one. Never raise it — share the code (a weak periodic task is
# ``Process.every``, not a hand-written start/stop/_tick loop).
MAX_CLONE_WINDOWS = 2
# A second, finer tier: shorter windows catch a hand-built request or a
# counter dict written out once per caller. Left at this bound:
# webdav/server.py with itself, so the bound cannot come down yet.
SHORT_CLONE_WINDOW = 5
SHORT_CLONE_MIN_CHARS = 110
MAX_SHORT_CLONE_WINDOWS = 4

_STRING = re.compile(
    r'''[rbfuRBFU]*(""".*?"""|\'\'\'.*?\'\'\'|"[^"\n]*"|'[^'\n]*')''', re.S)
_NUMBER = re.compile(r"\b\d[\d_.eE]*\b")


def _code_lines(path):
    """Stripped lines with literals normalised; blanks, ``#`` lines and
    bare strings (docstrings) dropped."""
    text = _NUMBER.sub("N", _STRING.sub("S", path.read_text(encoding="utf-8")))
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines
            if line and line != "S" and not line.startswith("#")]


def clone_windows(root, size=CLONE_WINDOW, min_chars=CLONE_MIN_CHARS):
    """{(file, file): windows that occur in both, or twice in one}."""
    places = {}
    for path in sorted(root.rglob("*.py")):
        lines = _code_lines(path)
        for i in range(len(lines) - size + 1):
            window = "\n".join(lines[i:i + size])
            if len(window) >= min_chars:
                places.setdefault(window, []).append(
                    (str(path.relative_to(root)), i))
    pairs = {}
    for found in places.values():
        first_file, first_line = found[0]
        for file, line in found[1:]:
            # Overlapping windows of one run are not a second place.
            if file != first_file or line - first_line >= size:
                pairs[first_file, file] = pairs.get((first_file, file), 0) + 1
                break
    return pairs


def test_no_file_pair_shares_more_clone_windows_than_the_ratchet():
    pairs = clone_windows(REPO / "src")
    assert pairs  # the scan really finds repeated windows
    assert ("repro/transport/mptcp.py", "repro/transport/tcp.py") not in pairs
    over = {pair: n for pair, n in pairs.items() if n > MAX_CLONE_WINDOWS}
    assert not over, f"literal clones above the ratchet: {over}"


def test_no_file_pair_shares_more_short_clone_windows_than_the_ratchet():
    pairs = clone_windows(REPO / "src", SHORT_CLONE_WINDOW,
                          SHORT_CLONE_MIN_CHARS)
    assert pairs  # the scan really finds repeated windows
    # Peer backup's exchanges share one RPC and one fan-in helper, and
    # the device-side page loaders share one page fetch.
    backup = "repro/attic/backup_service.py"
    assert (backup, backup) not in pairs
    assert ("repro/cdn/baselines.py", "repro/iah/browser.py") not in pairs
    over = {pair: n for pair, n in pairs.items()
            if n > MAX_SHORT_CLONE_WINDOWS}
    assert not over, f"short literal clones above the ratchet: {over}"


# -- one client exchange ----------------------------------------------------

def test_no_hand_counted_fan_in_in_src():
    # Waiting for n answers is repro.http.fan_in.
    counters = sorted(str(path.relative_to(REPO))
                      for path in (REPO / "src").rglob("*.py")
                      if '["count"] -=' in path.read_text(encoding="utf-8"))
    assert counters == []


def test_nocdn_origin_object_get_is_built_in_one_module():
    # ContentProvider.object_get is the one place the object URL is
    # formatted; every sender asks it for the request.
    src = REPO / "src" / "repro"
    formatters = sorted(
        str(path.relative_to(src))
        for package in ("nocdn", "cdn")
        for path in (src / package).glob("*.py")
        if "objects_prefix}/" in path.read_text(encoding="utf-8"))
    assert formatters == ["nocdn/origin.py"]


# -- knobs only tests set -----------------------------------------------------

CALLER_ROOTS = ("src", "scripts", "benchmarks", "examples")
# ``__init__`` parameters with a default that no call outside tests/
# passes, as ``file:Class.param`` under src/. The list may only shrink:
# make a knob nothing sets a constant, or delete its entry once a real
# caller passes it. NoCdnPeerService's forward_timeout and
# upload_interval and InternetAtHomeService's upstream_timeout were the
# last to go.
KNOBS_ONLY_TESTS_SET = frozenset({
    "repro/attic/backup.py:ColdCloudBackup.restore_latency",
    "repro/attic/cloudmirror.py:EncryptedCloudStore.port",
    "repro/attic/cloudmirror.py:KeyEscrowService.release_ttl",
    "repro/attic/driver.py:AtticDriver.via_path",
    "repro/cdn/baselines.py:CdnEdge.port",
    "repro/control/controller.py:Controller.metrics",
    "repro/control/controller.py:Controller.name",
    "repro/dcol/collective.py:DetourCollective.expel_after_reports",
    "repro/dcol/collective.py:DetourCollective.name",
    "repro/dcol/manager.py:DetourManager.factory",
    "repro/dcol/tunnels.py:NatTunnelServer.first_port",
    "repro/faults/injector.py:FaultInjector.metrics",
    "repro/hpop/core.py:Hpop.name",
    "repro/iah/history.py:InterestProfile.half_life",
    "repro/iah/service.py:InternetAtHomeService.cache_bytes",
    "repro/iah/service.py:InternetAtHomeService.smoother",
    "repro/iah/web.py:Website.object_ttl",
    "repro/iah/web.py:Website.port",
    "repro/naming/dns.py:RequestRoutingZone.ttl",
    "repro/nat/devices.py:NatDevice.first_public_port",
    "repro/nat/traversal.py:TurnServer.first_relay_port",
    "repro/nocdn/directory.py:ContentDirectory.metrics",
    "repro/nocdn/selection.py:TrustWeightedSelection.floor",
    "repro/nocdn/strategy.py:HashRing.vnodes",
    "repro/nocdn/strategy.py:ReplicateHotStrategy.hot_k",
    "repro/obs/sampling.py:ExemplarStore.per_metric",
    "repro/obs/slo.py:SloMonitor.metrics",
    "repro/transport/tcp.py:TcpConnection.rng_stream",
    "repro/transport/tcp.py:TcpFlow.overhead_per_packet",
    "repro/transport/tcp.py:TcpFlow.start",
    "repro/workloads/diurnal.py:DiurnalCurve.hourly",
})


def _callee(func):
    """The name a call is made by: ``f(...)`` or ``obj.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def init_knobs():
    """{class name: [(``file:Class.param``, param, position or None)]}
    for every ``__init__`` parameter with a default of a src/ class."""
    knobs = {}
    for path, tree in _trees("src"):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            init = next((node for node in cls.body
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "__init__"), None)
            if init is None:
                continue
            args = init.args
            positional = (args.posonlyargs + args.args)[1:]  # not self
            first = len(positional) - len(args.defaults)
            where = f"{path.relative_to(REPO / 'src')}:{cls.name}"
            found = [(f"{where}.{arg.arg}", arg.arg, i)
                     for i, arg in enumerate(positional) if i >= first]
            found += [(f"{where}.{arg.arg}", arg.arg, None)
                      for arg, default in zip(args.kwonlyargs,
                                              args.kw_defaults)
                      if default is not None]
            knobs.setdefault(cls.name, []).extend(found)
    return knobs


def knobs_only_tests_set():
    """``__init__`` parameters with defaults that no call in
    ``CALLER_ROOTS`` passes.

    Calls are matched to classes by name. A parameter is passed when a
    call gives it by keyword or position, when a call spreads ``*`` or
    ``**`` into the class, or when a subclass passes it through
    ``super().__init__`` / ``Base.__init__(self, ...)``; ``cls(...)``
    inside a class counts as a call to it.
    """
    knobs = init_knobs()
    passed = {}  # class name -> (most positional, keywords, spread)

    def credit(name, call, skip=0):
        if name not in knobs:
            return
        most, keywords, spread = passed.get(name, (0, set(), False))
        spread = spread or any(
            isinstance(arg, ast.Starred) for arg in call.args) or any(
            kw.arg is None for kw in call.keywords)
        passed[name] = (max(most, len(call.args) - skip),
                        keywords | {kw.arg for kw in call.keywords}, spread)

    for _path, tree in _trees(*CALLER_ROOTS):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = [_callee(base) for base in cls.bases]
            for call in ast.walk(cls):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if isinstance(func, ast.Attribute) \
                        and func.attr == "__init__":
                    if isinstance(func.value, ast.Call) \
                            and _callee(func.value.func) == "super":
                        for base in bases:
                            credit(base, call)
                    elif _callee(func.value) in bases:
                        credit(_callee(func.value), call, skip=1)
                elif getattr(func, "id", "") == "cls":
                    credit(cls.name, call)
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                credit(_callee(call.func), call)
    unpassed = set()
    for name, params in knobs.items():
        most, keywords, spread = passed.get(name, (0, set(), False))
        if not spread:
            unpassed |= {label for label, param, position in params
                         if param not in keywords
                         and (position is None or position >= most)}
    return unpassed


def test_no_new_knob_that_only_tests_set():
    found = knobs_only_tests_set()
    assert "repro/hpop/core.py:Hpop.name" in found  # the scan really finds
    assert found <= KNOBS_ONLY_TESTS_SET, (
        f"new knobs only tests set: {sorted(found - KNOBS_ONLY_TESTS_SET)}")
    # An entry whose parameter is gone leaves the list, so the knob
    # cannot come back under cover of a stale line.
    existing = {label for params in init_knobs().values()
                for label, _param, _position in params}
    assert KNOBS_ONLY_TESTS_SET <= existing, sorted(
        KNOBS_ONLY_TESTS_SET - existing)


# -- numpy is loaded by the first long shard, and by nothing else ------------

def _numpy_imports(tree):
    """The import statements under ``tree`` that name numpy."""
    found = set()
    for node in ast.walk(tree):
        modules = ([alias.name for alias in node.names]
                   if isinstance(node, ast.Import)
                   else [node.module or ""]
                   if isinstance(node, ast.ImportFrom) else [])
        if any(module.split(".")[0] == "numpy" for module in modules):
            found.add(node)
    return found


def test_numpy_is_imported_in_one_function_of_one_src_file():
    # A module-level import anywhere under src/ would charge every
    # process numpy's ~16 MiB and ~0.1 s (repro.util.erasure's length
    # rule says who should pay it).
    at_module_level, inside_functions = set(), set()
    for path, tree in _trees("src"):
        in_function = {
            node for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in _numpy_imports(function)}
        name = str(path.relative_to(REPO))
        if _numpy_imports(tree) - in_function:
            at_module_level.add(name)
        if in_function:
            inside_functions.add(name)
    assert at_module_level == set()
    assert inside_functions == {"src/repro/util/erasure.py"}


IMPORT_CONTRACT = """
import sys
from repro.workloads.chaos import run_chaos
owner = run_chaos(11)[0].owner          # 80 KiB files at RS(2,1)
assert len(owner.manifest) == 3 and owner.metrics.value("shards_repaired") > 0
assert "numpy" not in sys.modules, "a small-shard process loaded numpy"
from repro.util.erasure import ReedSolomonCodec
ReedSolomonCodec(6, 3).encode(bytes(8 << 20))
assert "numpy" in sys.modules, "an 8 MiB encode did not use numpy"
"""


def test_numpy_loads_for_long_shards_only():
    # In a process of its own: this session imported numpy long ago.
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CONTRACT], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert done.returncode == 0, done.stderr


# -- the package depends on numpy alone; routing needs no graph library ------

def _third_party_imports(*roots):
    """Top-level names imported under ``roots`` that are neither the
    stdlib's nor ``repro``."""
    names = set()
    for _path, tree in _trees(*roots):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def test_src_imports_exactly_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep).group(0)
                for dep in project["dependencies"]}
    assert _third_party_imports("src") == declared == {"numpy"}
    assert "networkx" not in _third_party_imports(
        "scripts", "examples", "benchmarks")


NO_GRAPH_LIBRARY_CONTRACT = """
import sys
from tests.nocdn.harness import NoCdnWorld
world = NoCdnWorld(homes=20)            # no path provider: every route
assert world.city.network.path_provider is None   # is a path search
assert world.load_page().bytes_from_peers > 0
from repro.workloads.chaos import run_chaos
run_chaos(11)
assert "networkx" not in sys.modules, "routing loaded networkx"
"""


def test_routing_loads_no_graph_library():
    # In a process of its own: the router oracle may already have
    # imported networkx into this test run.
    done = subprocess.run(
        [sys.executable, "-c", NO_GRAPH_LIBRARY_CONTRACT],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join((str(REPO / "src"), str(REPO)))})
    assert done.returncode == 0, done.stderr


# -- functions nothing refers to ---------------------------------------------

CODE_ROOTS = ("src", "tests", "scripts", "benchmarks", "examples")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


@functools.lru_cache(maxsize=None)
def _root_trees(root):
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((REPO / root).rglob("*.py"))]


def _trees(*roots):
    """(path, parsed module) of every ``*.py`` under ``roots``."""
    for root in roots:
        yield from _root_trees(root)


def unreferenced_functions():
    """``src/`` function definitions whose name nothing mentions.

    A mention is a Name, an attribute access, an imported name or an
    identifier-shaped string anywhere in ``CODE_ROOTS``; a
    ``getattr(obj, f"_do_{verb}")`` counts for every name its constant
    parts fit. Static, so a name shared with a live function hides a
    dead one — the call-profile pass in ROADMAP item 7(a) is the finer
    sieve; this one is the ratchet that runs everywhere.
    """
    names, patterns = set(), []
    for _path, tree in _trees(*CODE_ROOTS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant):
                if isinstance(node.value, str) \
                        and _IDENTIFIER.match(node.value):
                    names.add(node.value)
            elif (isinstance(node, ast.Call) and len(node.args) >= 2
                  and getattr(node.func, "id", "") == "getattr"
                  and isinstance(node.args[1], ast.JoinedStr)):
                patterns.append(re.compile("".join(
                    re.escape(part.value) if isinstance(part, ast.Constant)
                    else r"\w+" for part in node.args[1].values) + r"\Z"))
    return sorted(
        f"{path.relative_to(REPO)}:{node.lineno} {node.name}"
        for path, tree in _trees("src") for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in names
        and not any(pattern.match(node.name) for pattern in patterns))


def test_every_src_function_is_referred_to_somewhere():
    # 16 before PR 22. Delete the function or give it the test it was
    # missing; do not mention its name in a string to get past this.
    assert unreferenced_functions() == []


# -- the determinism boundary ------------------------------------------------

HOST_CLOCK = re.compile(
    r"perf_counter|process_time|getrusage|time\.time\(|monotonic\(")
# DESIGN "Determinism boundary": the profiled dispatch, the study
# runner's manifest/journal wall_s, and the two host-time benches.
HOST_CLOCK_READERS = {
    "src/repro/sim/engine.py",
    "src/repro/experiments/runner.py",
    "scripts/bench_obs.py",
    "benchmarks/bench_a6_erasure_throughput.py",
}


def _program_files():
    for pattern in ("src/**/*.py", "scripts/*.py", "benchmarks/bench_*.py",
                    "examples/*.py"):
        yield from sorted(REPO.glob(pattern))


def test_host_clock_is_read_in_four_named_files():
    readers = {str(path.relative_to(REPO)) for path in _program_files()
               if HOST_CLOCK.search(path.read_text(encoding="utf-8"))}
    assert readers == HOST_CLOCK_READERS


def test_only_the_frozen_benchmark_still_passes_profile_events():
    # Simulator.enable_tracing ignores it; the parameter goes when
    # benchmarks/platform/scenarios.py stops passing it (ROADMAP item 2(c)).
    # A dict key counts: ``enable_tracing(**LITE)`` is how tests passed it.
    passing = {
        str(path.relative_to(REPO))
        for path, tree in _trees(*CODE_ROOTS) for node in ast.walk(tree)
        if (isinstance(node, ast.Call)
            and getattr(node.func, "attr", "") == "enable_tracing"
            and any(kw.arg == "profile_events" for kw in node.keywords))
        or (isinstance(node, ast.Dict) and any(
            isinstance(key, ast.Constant) and key.value == "profile_events"
            for key in node.keys))}
    assert passing == {"benchmarks/platform/scenarios.py"}


# -- report markup lives in one module ---------------------------------------

MARKUP_LITERALS = ("<h2>", "<table>", "## ", "|---", ".ljust(")


def test_report_markup_is_written_only_in_the_document_module():
    # A producer that lays out its own heading or table is a renderer
    # the every-block-in-every-rendering property cannot see.
    obs = REPO / "src" / "repro" / "obs"
    found = {(path.name, literal) for path in obs.glob("*.py")
             for literal in MARKUP_LITERALS
             if literal in path.read_text(encoding="utf-8")}
    assert found == {("document.py", literal) for literal in MARKUP_LITERALS}


# -- bench_regress.py ---------------------------------------------------------

def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_regress():
    return load_module(REPO / "scripts" / "bench_regress.py")


def test_fact_files_are_committed_equal_to_their_baselines(bench_regress):
    baselines = sorted(bench_regress.BASELINE_DIR.glob("BENCH_*.json"))
    assert {path.name for path in baselines} == set(
        bench_regress.BENCH_MODULES)
    facts = [path for path in baselines
             if path.name not in bench_regress.HOST_TIME]
    assert len(facts) == 3
    for path in facts:
        assert (REPO / path.name).read_bytes() == path.read_bytes(), path.name


BASELINE_STUB = {"cells": {"a": {"loads_ok": 40, "errors": 0.0},
                           "b": {"loads_ok": 41, "errors": 0.0}},
                 "host": {"wall_s": 2.0, "mb_per_s": 100.0, "reps": 5}}


@pytest.mark.parametrize("edit, failures", [
    pytest.param(lambda doc: None, [], id="equal"),
    pytest.param(lambda doc: doc["cells"]["b"].update(loads_ok=42),
                 ["BENCH_stub.json:cells.b.loads_ok: 42 != baseline 41"],
                 id="fact-moved"),
    pytest.param(lambda doc: doc["cells"]["a"].update(errors=1e-9),
                 ["BENCH_stub.json:cells.a.errors: 1e-09 != baseline 0.0"],
                 id="zero-baseline-is-gated"),
    pytest.param(lambda doc: doc["cells"]["a"].pop("loads_ok"),
                 ["BENCH_stub.json:cells.a.loads_ok: missing from fresh run"],
                 id="fact-missing"),
    pytest.param(lambda doc: doc.pop("host"),
                 ["BENCH_stub.json:host.mb_per_s: missing from fresh run",
                  "BENCH_stub.json:host.wall_s: missing from fresh run"],
                 id="host-rows-missing"),
    pytest.param(lambda doc: doc["host"].update(wall_s=2.2, mb_per_s=90.0,
                                                reps=9),
                 [], id="worse-within-threshold-and-ungated"),
    pytest.param(lambda doc: doc["host"].update(wall_s=0.1, mb_per_s=900.0),
                 [], id="better"),
    pytest.param(lambda doc: doc["host"].update(wall_s=2.4),
                 ["BENCH_stub.json:host.wall_s: 2.4 vs baseline 2 "
                  "(lower is better, budget 15%)"], id="lower-row-worse"),
    pytest.param(lambda doc: doc["host"].update(mb_per_s=80.0),
                 ["BENCH_stub.json:host.mb_per_s: 80 vs baseline 100 "
                  "(higher is better, budget 15%)"], id="higher-row-worse"),
])
def test_bench_regress_gates_facts_by_equality_and_host_time_by_threshold(
        bench_regress, tmp_path, monkeypatch, capsys, edit, failures):
    fresh = json.loads(json.dumps(BASELINE_STUB))
    edit(fresh)
    for sub, doc in (("baselines", BASELINE_STUB), ("fresh", fresh)):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "BENCH_stub.json").write_text(json.dumps(doc))
    monkeypatch.setattr(bench_regress, "BASELINE_DIR", tmp_path / "baselines")
    monkeypatch.setattr(bench_regress, "FRESH_DIR", tmp_path / "fresh")
    monkeypatch.setattr(bench_regress, "HOST_TIME", {"BENCH_stub.json": {
        "host.wall_s": "lower", "*.mb_per_s": "higher",
        "host.reps": "ungated"}})
    assert bench_regress.main([]) == (1 if failures else 0)
    out = capsys.readouterr().out
    assert [line.split("REGRESSION ")[1] for line in out.splitlines()
            if "REGRESSION" in line] == failures
    assert ("ok BENCH_stub.json: 6 leaves" in out) == (not failures)


def test_bench_regress_runs_each_result_file_in_its_own_process(
        bench_regress, tmp_path, monkeypatch):
    # One process for every bench let the NoCDN sweep's heap set the
    # next bench's peak RSS.
    stubs = {}
    for name in ("BENCH_a.json", "BENCH_b.json"):
        stub = tmp_path / f"{name}.py"
        stub.write_text(
            "import os, pathlib\n"
            "def experiment():\n"
            "    pathlib.Path(__file__).with_suffix('.pid')"
            ".write_text(str(os.getpid()))\n", encoding="utf-8")
        stubs[name] = str(stub)
    monkeypatch.setattr(bench_regress, "BENCH_MODULES", stubs)
    bench_regress.run_fresh(sorted(stubs))
    pids = [int(pathlib.Path(stub).with_suffix(".pid").read_text())
            for stub in stubs.values()]
    assert len({os.getpid(), *pids}) == 3


# -- what the platform benchmark patches -------------------------------------

def test_every_benchmark_entry_point_is_defined_on_its_own_class():
    # spans.py wraps cls.__dict__[method]: a method hoisted into a base
    # class would only fail there, in a traced benchmark rep.
    spans = load_module(REPO / "benchmarks" / "platform" / "spans.py")
    assert len(spans.ENTRY_POINTS) >= 36
    for entry in spans.ENTRY_POINTS:
        cls = getattr(importlib.import_module(entry.module), entry.cls)
        assert entry.method in vars(cls), entry.name
