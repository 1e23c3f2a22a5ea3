#!/usr/bin/env bash
# `make check`: the tier-1 suite, then the platform benchmark harness's
# self-tests (benchmarks/ is outside tier-1's testpaths). Both are
# pytest; every guarantee the repo gates is a test in one of the two.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: full suite =="
if python -c "import pytest_cov" >/dev/null 2>&1; then
    # Coverage gate only where the plugin exists; the container image
    # does not ship pytest-cov and we cannot install it there.
    python -m pytest -x -q --cov=repro --cov-report=term-missing:skip-covered
else
    python -m pytest -x -q
fi

echo
echo "== platform benchmark harness: self-tests =="
python -m pytest benchmarks/platform/tests -q

echo
echo "all checks passed"
