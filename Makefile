.PHONY: install test bench bench-smoke bench-compare experiments examples lint resilience-smoke scale-16k-smoke scale-64k-smoke campaign-smoke serve-smoke clean

install:
	pip install -e ".[test]"

test:
	pytest tests/ -q

# Whole-program static analysis (repro.analysis) + strict typing for the
# core, analysis, and annotated simulator layers.  Error-tier findings
# not in analysis_baseline.json fail the build; the JSON and SARIF
# reports are uploaded as CI artifacts.  mypy is optional locally (the
# analysis pass is pure stdlib); CI installs it and runs the full gate.
lint:
	PYTHONPATH=src python -m repro.analysis \
		--baseline analysis_baseline.json \
		--output analysis_report.json \
		--sarif-output analysis.sarif \
		src/repro
	@if python -c "import mypy" >/dev/null 2>&1; then \
		python -m mypy src/repro/core src/repro/analysis src/repro/simulator/engine.py src/repro/simulator/faults.py src/repro/simulator/macro.py src/repro/simulator/topology.py; \
	else \
		echo "mypy not installed; skipping type check (pip install mypy, or rely on CI)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only -q

bench-smoke:
	python benchmarks/perf_guard.py --fast

# Diff the working-copy perf-guard report against the committed version
# of the baseline and fail on >10% regressions in any gated speedup
# common to both files.  By default both point at BENCH_PR10.json: the
# committed report is the baseline, the file on disk (freshly written
# by perf_guard.py) is the candidate.  Cross-PR baselines (BASE=
# BENCH_PR8.json) are possible but expected to "regress" wherever a
# later PR sped up a shared reference implementation — the per-PR gate
# recalibrations in perf_guard.py record those shifts.
BASE ?= BENCH_PR10.json
NEW ?= BENCH_PR10.json
bench-compare:
	@git show HEAD:$(BASE) > .bench_base.json 2>/dev/null || cp $(BASE) .bench_base.json
	python benchmarks/bench_compare.py .bench_base.json $(NEW)
	@rm -f .bench_base.json

experiments:
	python -m repro.experiments all --fast

# The resilience experiment (fault injection + checkpoint tradeoff) at a
# tiny configuration; RESILIENCE.json is uploaded as a CI artifact.
resilience-smoke:
	python -m repro.experiments resilience --fast --json-out RESILIENCE.json

# A complete, verified 16384-rank Cannon simulation through compiled
# replay: the blocks ride the batch schedule and the product is checked
# against A @ B on the host.
scale-16k-smoke:
	python -m repro.experiments scaling-large --p-values 16384 --n0 2 --scheduler compiled --no-disk-cache

# A complete 65536-rank Cannon simulation, timing only (--no-verify: no
# product is built).  The experiment defaults to the compiled
# (record->replay) scheduler: the rolls replay as shift phases charged
# on precomputed absolute-rank routing and only the probe ranks ever run
# Python, so the 64k point takes about a second; timing is fuzz-gated
# bit-identical to the heap scheduler at p <= 4096 and pinned to
# Cannon's closed-form T_p up to p = 65536 by the test suite.
scale-64k-smoke:
	python -m repro.experiments scaling-large --p-values 65536 --n0 2 --no-verify --no-disk-cache

# A seeded autopilot battery through the campaign runner: every anomaly
# oracle armed (including the alternate-scheduler cross-check), exit
# non-zero on any finding.  Fully reproducible — the same seed yields
# byte-identical CAMPAIGN.jsonl / CAMPAIGN.report.json; both (plus the
# derived SQLite index) are uploaded as CI artifacts.
campaign-smoke:
	rm -f CAMPAIGN.jsonl CAMPAIGN.sqlite CAMPAIGN.report.json
	python -m repro campaign autopilot --seed 2024 --count 40 \
		--profile smoke --db CAMPAIGN --fail-on-anomaly

# A 500-query mixed load (point predictions, region maps, crossover
# curves, simulator jobs) against a real repro.serve HTTP server on an
# ephemeral port: zero errors and non-zero micro-batch coalescing
# counters are asserted, exit non-zero otherwise.
serve-smoke:
	python benchmarks/serve_loadgen.py --smoke

examples:
	python examples/quickstart.py
	python examples/algorithm_selection.py
	python examples/scalability_study.py
	python examples/cm5_reproduction.py --fast
	python examples/technology_tradeoff.py
	python examples/memory_constrained_scaling.py
	python examples/paper_walkthrough.py

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
