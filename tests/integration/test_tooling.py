"""Guards on ``Makefile`` and ``scripts/check.sh`` themselves: nothing
they name may be missing, and ``make check`` stays pytest only."""

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
