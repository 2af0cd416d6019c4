# One-command entry points for the repo's verification workflows.
#
#   make test          - tier-1: full test suite (fails fast)
#   make bench-smoke   - run every benchmark module once, timings disabled
#   make bench         - full timed benchmark run
#   make bench-compare - timed run into $(BENCH_OUT), then fail if any
#                        benchmark regressed >20% vs BENCH_baseline.json
#                        (override the output: make bench-compare BENCH_OUT=x.json)
#   make bench-trend   - per-benchmark minimums across the whole committed
#                        BENCH_*.json series (informational, no gate)
#   make perfbench     - the service benchmark: perfbench/run.py on all
#                        four workloads against a real daemon (seed 1,
#                        24 s each; fails if an output check fails)
#   make coverage      - tests under pytest-cov: fail under $(COV_MIN)%
#                        line coverage of repro, HTML report in htmlcov/
#   make verify-incremental - the incremental≡full abstract-chase
#                        equivalence suite (unit chains + region-sweep
#                        edge cases + Hypothesis property tests)
#   make lint          - ruff over the whole tree (needs `pip install ruff`)
#   make analyze       - repro.analysis invariant linter over src/
#                        (stdlib-only; TDX001-TDX006, see docs/architecture.md)
#   make serve         - run the resident chase daemon on $(SERVE_PORT)
#                        (chase-as-a-service; see docs/server.md)
#   make verify-server - the daemon's end-to-end suites (sessions and
#                        events) + a 10 s perfbench delta_churn run
#                        (fails if an output check or the
#                        cache-defeat guard fails)
#   make verify        - test + bench-smoke + verify-incremental + analyze
#
# CI (.github/workflows/ci.yml) runs exactly these targets — test and
# verify-incremental on a Python 3.11/3.12/3.13 matrix, bench-smoke
# (skipped on doc-only pushes), lint, coverage, a multi-core
# shard-parity pass, an offline `pip install . --no-build-isolation
# --no-index` job, and a scheduled/manual bench-compare gate — so the
# workflow file is the canonical, always-exercised verify recipe.

PYTHON ?= python
PYTHONPATH_SRC := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)
BENCH_OUT ?= BENCH_pr10.json
COV_MIN ?= 85
SERVE_PORT ?= 8765

.PHONY: test bench-smoke bench bench-compare bench-trend perfbench coverage \
	verify verify-incremental verify-server serve lint analyze \
	install-editable install

test:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q

bench-smoke:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks -q --benchmark-disable

bench:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks -q --benchmark-only

bench-compare:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks -q --benchmark-only \
		--benchmark-json=$(BENCH_OUT)
	$(PYTHON) benchmarks/compare_bench.py BENCH_baseline.json $(BENCH_OUT) \
		--max-regression 0.20

bench-trend:
	$(PYTHON) benchmarks/compare_bench.py --trend

perfbench:
	for workload in delta_churn event_stream query_mix cold_exchange; do \
		$(PYTHON) perfbench/run.py --workload $$workload \
			--seed 1 --seconds 24 --trace 0 || exit 1; \
	done

coverage:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -q \
		--cov=repro --cov-report=term --cov-report=html \
		--cov-fail-under=$(COV_MIN)

verify-incremental:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -q \
		tests/unit/test_incremental_chase.py \
		tests/property/test_incremental_equivalence.py \
		tests/integration/test_chase_equivalence_goldens.py

serve:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro serve --port $(SERVE_PORT)

verify-server:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -q tests/integration/test_server.py \
		tests/integration/test_server_events.py
	$(PYTHON) perfbench/run.py --workload delta_churn --seed 1 --seconds 10

lint:
	ruff check src tests benchmarks examples setup.py

analyze:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src

verify: test bench-smoke verify-incremental analyze

install-editable:
	pip install -e . --no-build-isolation

install:
	pip install . --no-build-isolation
