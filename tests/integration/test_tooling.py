"""Guards on the tooling itself: nothing ``Makefile`` or
``scripts/check.sh`` names may be missing and ``make check`` stays
pytest only; ``src/`` grows no literal clones; report markup is written
in one module; ``bench_regress.py --run`` isolates each bench; every
method the platform benchmark patches is defined where it looks for it."""

import importlib.util
import os
import pathlib
import re

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


def clone_windows(root):
    """{(file, file): windows that occur in both, or twice in one}."""
    places = {}
    for path in sorted(root.rglob("*.py")):
        lines = _code_lines(path)
        for i in range(len(lines) - CLONE_WINDOW + 1):
            window = "\n".join(lines[i:i + CLONE_WINDOW])
            if len(window) >= CLONE_MIN_CHARS:
                places.setdefault(window, []).append(
                    (str(path.relative_to(root)), i))
    pairs = {}
    for found in places.values():
        first_file, first_line = found[0]
        for file, line in found[1:]:
            # Overlapping windows of one run are not a second place.
            if file != first_file or line - first_line >= CLONE_WINDOW:
                pairs[first_file, file] = pairs.get((first_file, file), 0) + 1
                break
    return pairs


def test_no_file_pair_shares_more_clone_windows_than_the_ratchet():
    pairs = clone_windows(REPO / "src")
    assert pairs  # the scan really finds repeated windows
    assert ("repro/transport/mptcp.py", "repro/transport/tcp.py") not in pairs
    over = {pair: n for pair, n in pairs.items() if n > MAX_CLONE_WINDOWS}
    assert not over, f"literal clones above the ratchet: {over}"


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


# -- bench_regress.py --run ---------------------------------------------------

def test_bench_regress_runs_each_result_file_in_its_own_process(
        tmp_path, monkeypatch):
    # One process for all six benches let the NoCDN sweep's heap set
    # BENCH_scale.json's peak_rss_mb.
    spec = importlib.util.spec_from_file_location(
        "bench_regress", REPO / "scripts" / "bench_regress.py")
    bench_regress = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_regress)
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
    spec = importlib.util.spec_from_file_location(
        "platform_spans", REPO / "benchmarks" / "platform" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.ENTRY_POINTS) >= 36
    for entry in spans.ENTRY_POINTS:
        cls = getattr(importlib.import_module(entry.module), entry.cls)
        assert entry.method in vars(cls), entry.name
