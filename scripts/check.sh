#!/usr/bin/env bash
# Tier-1 verification + codec-regression gate + trace smoke.
#
# Runs the repo's tier-1 test command, then re-runs the exhaustive
# erasure MDS tests explicitly so a regression in the codec (the one
# spot the seed shipped broken) fails fast and loudly, then the
# observability smoke stage: a traced end-to-end sim must produce a
# parseable report with >= 1 span, same-seed traces must be
# byte-identical, and tracer overhead on the erasure encode path must
# stay within 5% of the no-op tracer.
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
echo "== erasure codec gate: exhaustive any-k-of-n =="
python -m pytest -x -q \
    tests/util/test_erasure.py::TestMdsConstruction \
    tests/util/test_erasure.py::test_any_k_of_n_recovers

echo
echo "== trace smoke: traced sim + report + determinism + overhead =="
python scripts/trace_smoke.py

echo
echo "== obs smoke: TSDB determinism + profiler overhead =="
python scripts/obs_smoke.py

echo
echo "== chaos soak: fixed-seed churn + degradation guarantees =="
python scripts/chaos_soak.py

echo
echo "== control smoke: decision-log determinism + acted-on alerts =="
python scripts/control_smoke.py

echo
echo "== nocdn strategy smoke: determinism + collaborative offload win =="
python scripts/nocdn_strategy_smoke.py

echo
echo "== study smoke: worker-count byte identity + resume =="
python scripts/study_smoke.py

echo
echo "== platform benchmark harness: self-tests (not collected by tier-1) =="
python -m pytest benchmarks/platform/tests -q

echo
echo "all checks passed"
