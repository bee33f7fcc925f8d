PYTHON ?= python
JOBS ?= 4

export PYTHONPATH := src

.PHONY: test test-perf bench bench-baseline bench-smoke verify serve check \
	campaign-smoke synth3d-smoke service-load-smoke

test:
	$(PYTHON) -m pytest tests/ -q

# Static analysis: self-lint src/, lint the example circuits and the
# committed check fixtures (bad fixtures are expected to have findings,
# so they are exercised by tests/check instead of linted here).
check:
	$(PYTHON) -m repro check --self --src src/repro examples/circuits

# Tier-1 tests + fault-injection smoke + perf baseline schema check.
verify:
	$(PYTHON) -m pytest tests/ -x -q
	$(PYTHON) -m pytest tests/robust/test_injection_smoke.py -q
	$(PYTHON) -c "import json; from repro.perf import validate_bench_payload; \
	validate_bench_payload(json.load(open('BENCH_compact.json'))); \
	print('BENCH_compact.json: schema OK')"

test-perf:
	$(PYTHON) -m pytest tests/perf tests/bdd/test_swap_properties.py -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_perf_smoke.py -q

# Regenerate the committed perf trajectory point. One worker: labeling
# budgets are wall-clock, and parallel workers slow each other's solves
# enough to cut some of them short (cavlc_like, mult4).
bench-baseline:
	$(PYTHON) -m repro bench perf --jobs 1 --layer-sweep 1,2,3 \
	  --perf-json BENCH_compact.json

# Chaos-ridden yield campaign: kill workers, drop connections, corrupt
# cache and checkpoint files, then assert the resumed report is
# bit-identical to a fault-free run. Exit 1 on divergence.
campaign-smoke:
	$(PYTHON) -m repro bench campaign --chaos --samples 40 --shard-size 5 \
	  --p-stuck-on 0.01 --p-stuck-off 0.05

# Layered path end to end: two-layer synthesis (validated) on two
# example circuits plus a one-layer c17, each artifact re-checked
# against its certificate (L003, or L001 for c17-1l; repro check exits
# 1 on any non-INFO finding) under two hash seeds whose outputs must be
# byte-identical, then a small layer sweep through the bench harness.
SYNTH3D_TMP ?= .synth3d-smoke
synth3d-smoke:
	mkdir -p $(SYNTH3D_TMP)
	$(PYTHON) -m repro synth examples/circuits/c17.v --layers 1 \
	  --json $(SYNTH3D_TMP)/c17-1l.json
	$(PYTHON) -m repro synth examples/circuits/c17.v --layers 2 \
	  --json $(SYNTH3D_TMP)/c17-2l.json
	$(PYTHON) -m repro synth examples/circuits/maj3.pla --layers 2 \
	  --json $(SYNTH3D_TMP)/maj3-2l.json
	for art in c17-1l c17-2l maj3-2l; do \
	  for seed in 1 2; do \
	    PYTHONHASHSEED=$$seed $(PYTHON) -m repro check --json \
	      $(SYNTH3D_TMP)/$$art.json > $(SYNTH3D_TMP)/$$art.check$$seed || exit 1; \
	  done; \
	  cmp $(SYNTH3D_TMP)/$$art.check1 $(SYNTH3D_TMP)/$$art.check2 || exit 1; \
	done
	$(PYTHON) -m repro bench perf --circuits c17,voter9 --layer-sweep 1,2 \
	  --jobs 2 --time-limit 10

# Load-generator smoke: drive the async front with the cached mix and
# gate on a conservative RPS floor and a zero error budget. The floor
# is ~20x below what a 1-CPU box measures (~12k RPS), so only a real
# regression — not a noisy runner — trips it.
service-load-smoke:
	$(PYTHON) -m repro bench service --load cached --connections 64 \
	  --requests-per-conn 40 --pipeline 8 --jobs 2 \
	  --rps-floor 500 --max-error-rate 0

# Persistent synthesis service on a local Unix socket.
SERVICE_SOCKET ?= /tmp/repro.sock
serve:
	$(PYTHON) -m repro serve --socket $(SERVICE_SOCKET) --jobs $(JOBS) \
	  --cache-dir .repro-cache
