# Convenience entries mirroring .github/workflows/ci.yml.
# `make check` is the full pre-merge gate.

PYTHON ?= python

.PHONY: reprolint ruff mypy lint test fleet-smoke trace-smoke edge-smoke edge-topology-smoke gp-smoke scenario-smoke bench bench-smoke check

reprolint:
	PYTHONPATH=tools $(PYTHON) -m reprolint src benchmarks examples \
		--baseline reprolint_baseline.json

# ruff/mypy come from `pip install -e .[dev]`; skip with a notice when the
# container doesn't have them so `make lint` stays useful everywhere.
ruff:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null; then \
		ruff check src tools benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e .[dev]) — skipping"; \
	fi

mypy:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed (pip install -e .[dev]) — skipping"; \
	fi

lint: reprolint ruff mypy

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# A small end-to-end fleet run (8 sessions, reduced budget): exercises the
# scheduler, the batched GP service, and the warm-start store in one shot.
fleet-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fleet --sessions 8 --initial 3 --iterations 5

# A tiny traced fleet: `repro trace` exits non-zero unless the emitted
# file is a non-empty, schema-valid Chrome trace that round-trips.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro trace --fleet 4 --initial 2 --iterations 3 \
		--out /tmp/repro-trace-smoke.trace.json \
		--metrics /tmp/repro-trace-smoke.metrics.json

# Edge offloading smoke: a 16-session fleet sharing ONE edge server must
# be bit-reproducible — run it twice at seed 2024 and byte-compare.
edge-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fleet --edge --sessions 16 --seed 2024 \
		--initial 2 --iterations 3 > /tmp/repro-edge-smoke-a.txt
	PYTHONPATH=src $(PYTHON) -m repro fleet --edge --sessions 16 --seed 2024 \
		--initial 2 --iterations 3 > /tmp/repro-edge-smoke-b.txt
	cmp /tmp/repro-edge-smoke-a.txt /tmp/repro-edge-smoke-b.txt
	@echo "edge-smoke: 16-session --edge fleet is bit-reproducible"

# Multi-server topology smoke: a 16-session fleet placed across FOUR edge
# servers (admission + shedding live) must be bit-reproducible — run it
# twice at seed 2024 and byte-compare.
edge-topology-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fleet --edge-servers 4 --sessions 16 \
		--seed 2024 --initial 2 --iterations 3 > /tmp/repro-edge-topo-smoke-a.txt
	PYTHONPATH=src $(PYTHON) -m repro fleet --edge-servers 4 --sessions 16 \
		--seed 2024 --initial 2 --iterations 3 > /tmp/repro-edge-topo-smoke-b.txt
	cmp /tmp/repro-edge-topo-smoke-a.txt /tmp/repro-edge-topo-smoke-b.txt
	@echo "edge-topology-smoke: 4-server topology fleet is bit-reproducible"

# Sparse GP tier smoke: a fleet on the sparse tier with a tiny switch
# threshold (so support-set selection actually fires) must be
# bit-reproducible — run it twice at seed 2024 and byte-compare.
gp-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fleet --gp-tier sparse --gp-threshold 6 \
		--sessions 8 --seed 2024 --initial 3 --iterations 8 \
		> /tmp/repro-gp-smoke-a.txt
	PYTHONPATH=src $(PYTHON) -m repro fleet --gp-tier sparse --gp-threshold 6 \
		--sessions 8 --seed 2024 --initial 3 --iterations 8 \
		> /tmp/repro-gp-smoke-b.txt
	cmp /tmp/repro-gp-smoke-a.txt /tmp/repro-gp-smoke-b.txt
	@echo "gp-smoke: sparse-tier fleet is bit-reproducible"

# Scenario replay smoke: compile-and-run one catalog scenario twice at a
# fixed seed and byte-compare the replay artifacts (the catalog's
# name+seed→identical-trace contract — see docs/scenarios.md).
scenario-smoke:
	PYTHONPATH=src $(PYTHON) -m repro scenario run flash-crowd --seed 2024 \
		--sessions 6 --initial 2 --iterations 3 \
		--export /tmp/repro-scenario-smoke-a.json > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro scenario run flash-crowd --seed 2024 \
		--sessions 6 --initial 2 --iterations 3 \
		--export /tmp/repro-scenario-smoke-b.json > /dev/null
	cmp /tmp/repro-scenario-smoke-a.json /tmp/repro-scenario-smoke-b.json
	@echo "scenario-smoke: flash-crowd replay is byte-identical at seed 2024"

# Time the hot kernels and distill the scalar-vs-batched backend numbers
# into the committed BENCH_pr4.json (see docs/performance.md).
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_microbench.py -q \
		--benchmark-only --benchmark-json=/tmp/repro-bench-pr4.json
	$(PYTHON) tools/bench_pr4.py /tmp/repro-bench-pr4.json BENCH_pr4.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr5.py BENCH_pr5.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr7.py BENCH_pr7.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr8.py BENCH_pr8.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr9.py BENCH_pr9.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr10.py BENCH_pr10.json

# Run every microbench body once, untimed: catches API drift in the bench
# suite without paying for calibration rounds.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_microbench.py -q \
		--benchmark-disable

check: lint test fleet-smoke trace-smoke edge-smoke edge-topology-smoke gp-smoke scenario-smoke bench-smoke
