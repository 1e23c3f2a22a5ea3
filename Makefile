PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: check test bench bench-check bench-scale bench-nocdn bench-obs \
	experiments chaos dashboard study bench-platform

check:
	./scripts/check.sh

test:
	python -m pytest -x -q

chaos:
	python scripts/chaos_soak.py

dashboard:
	python scripts/dashboard_report.py --chaos --out-dir artifacts/dashboard

# 16-seed chaos study on a full-width process pool: per-seed artifact
# directories + journal under artifacts/study, merged summary.json with
# CI bands, and the study dashboard (study.md / study.html). Resumable:
# re-running only executes cells the journal does not mark complete.
study:
	python scripts/study_run.py --scenario chaos --seeds 101-116 \
		--out artifacts/study

bench:
	python -m pytest benchmarks/ --benchmark-only -q

# Opt-in perf gate: regenerate BENCH_*.json and fail on >15% regression
# against benchmarks/baselines/. Wall-clock sensitive, so not in `check`.
bench-check:
	python scripts/bench_regress.py --run

# Fleet-scale engine benchmark: 1k/10k/100k-home scenarios, engine
# throughput, and the aggregated-vs-naive speedup -> BENCH_scale.json.
bench-scale:
	python scripts/bench_scale.py

# Zipf x fleet-size NoCDN offload sweep: placement strategies vs the
# traditional-CDN edge baseline -> BENCH_nocdn.json (about 80 s; the
# 10k-home cells dominate).
bench-nocdn:
	python scripts/bench_nocdn_fleet.py

# Full-stack observability overhead at the 100k-home flagship scale:
# lite tracing + tail sampling + rollups + TSDB + SLO monitor vs the
# bare engine, min-of-reps -> BENCH_obs.json (gate: overhead <= 10%,
# byte-identical exports, every error/fault trace retained).
bench-obs:
	python scripts/bench_obs.py

# The platform benchmark BENCHMARK.json declares: host time per
# simulated operation on seven workloads, each in its own process
# (about two minutes). benchmarks/platform/README.md names every metric
# and states the rule a performance claim has to follow.
bench-platform:
	python3 benchmarks/platform/run.py

experiments:
	python -m repro.experiments all
