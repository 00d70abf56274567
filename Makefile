# Developer entry points. `make verify` is the full pre-merge check and
# runs every step of CI's `verify` job: release build, the whole test
# suite, lints as errors, formatting, byte-identical goldens and figure
# results, the benchmark package's tests and smoke runs, and the gate.

CARGO ?= cargo

.PHONY: verify build test lint fmt goldens goldens-check figures-check benchmark-test benchmark-smoke gate bench-figures trace-demo analyze-demo top-demo perf-diff

verify: build test lint fmt goldens-check figures-check benchmark-test benchmark-smoke gate

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

fmt:
	$(CARGO) fmt --check

# The CI regression gate (correctness + stage-2 I/O budget vs the
# committed baseline breakdown); exits non-zero on a regression.
gate:
	$(CARGO) run --release --example ci_regression_gate

# Regenerating every golden must reproduce the committed bytes.
goldens-check: goldens
	git diff --exit-code

# Every modeled figure, table and compare profile must come back byte
# for byte (wall-clock results are git-ignored).
figures-check:
	$(CARGO) run --release -p reprocmp-bench -- all
	git diff --exit-code bench_results tests/goldens

# benchmark/ is its own workspace over these crates' API surface.
benchmark-test:
	$(CARGO) test --offline --manifest-path benchmark/Cargo.toml

# One second of each compare workload on real files, of the daemon
# over loopback TCP with eight jobs in flight, and of a delta-chain
# store cycle through the CLI; every op must be correct and none may
# fail.
benchmark-smoke:
	for wl in compare_sparse compare_dense daemon_mix store_cycle; do \
		$(CARGO) run --release --offline --manifest-path benchmark/Cargo.toml -- \
			run --workload $$wl --seconds 1 | tail -n 1 > $$wl-smoke.json && \
		grep -q '"correct":true,' $$wl-smoke.json && \
		grep -q '"failed":0,' $$wl-smoke.json || exit 1; \
	done

# Regenerate the golden CompareReport JSONs, the analyze divergence
# document, and the TUI frame snapshots after an intentional change
# (review the diff before committing).
goldens:
	UPDATE_GOLDEN=1 $(CARGO) test --test golden_reports
	UPDATE_GOLDEN=1 $(CARGO) test --test analyze_json
	UPDATE_GOLDEN=1 $(CARGO) test --test telemetry_plane
	UPDATE_GOLDEN=1 $(CARGO) test -p reprocmp-analyze --test snapshots

# Flight-recorder demo: two divergent mini-HACC runs, then a journaled
# comparison exporting a Chrome-trace timeline. Open trace.json in
# ui.perfetto.dev.
TRACE_DEMO_DIR ?= /tmp/reprocmp-trace-demo
trace-demo:
	$(CARGO) build --release -p reprocmp-cli
	rm -rf $(TRACE_DEMO_DIR)
	target/release/reprocmp simulate --out-dir $(TRACE_DEMO_DIR)/run1 --order-seed 1
	target/release/reprocmp simulate --out-dir $(TRACE_DEMO_DIR)/run2 --order-seed 2
	target/release/reprocmp trace compare \
		--run1 $(TRACE_DEMO_DIR)/run1/pfs/run.rank0.v000040.ckpt \
		--run2 $(TRACE_DEMO_DIR)/run2/pfs/run.rank0.v000040.ckpt \
		--error-bound 1e-7 --out trace.json
	@echo "trace.json written — open it in ui.perfetto.dev"

# Cross-run performance regression check over the committed, fully
# deterministic sim-backend goldens: the pre-flight-recorder report
# vs the current one, under a 10% budget. The three modeled compare
# profiles must then come back byte for byte.
PROFILES = server_compare_profile divergence_profile telemetry_profile
perf-diff:
	$(CARGO) run --release -p reprocmp-cli --bin reprocmp -- perf-diff \
		tests/goldens/legacy_pre_flightrec.json tests/goldens/seed2_moderate.json \
		--budget 10%
	$(CARGO) run --release -p reprocmp-bench -- $(PROFILES)
	git diff --exit-code $(foreach p,$(PROFILES),tests/goldens/$(p).json)

# Divergence-forensics demo: two divergent mini-HACC runs, then the
# analyze verb — O(log M) bisection, front tracking, and a scripted
# replay of the terminal explorer.
ANALYZE_DEMO_DIR ?= /tmp/reprocmp-analyze-demo
analyze-demo:
	$(CARGO) build --release -p reprocmp-cli
	rm -rf $(ANALYZE_DEMO_DIR)
	target/release/reprocmp simulate --out-dir $(ANALYZE_DEMO_DIR)/run1 --order-seed 1
	target/release/reprocmp simulate --out-dir $(ANALYZE_DEMO_DIR)/run2 --order-seed 2
	target/release/reprocmp analyze \
		--run1-dir $(ANALYZE_DEMO_DIR)/run1/pfs \
		--run2-dir $(ANALYZE_DEMO_DIR)/run2/pfs \
		--error-bound 1e-9 --keys "l l t q" || test $$? -eq 1

# Live-telemetry demo: a daemon sampling at 10 Hz under a short job
# load, one Prometheus scrape, a few live `top` frames, then a clean
# drain. The persisted history survives at .../store/telemetry.jsonl —
# replay it any time with `reprocmp top --file ... --keys "t q"`.
TOP_DEMO_DIR ?= /tmp/reprocmp-top-demo
top-demo:
	$(CARGO) build --release -p reprocmp-cli
	rm -rf $(TOP_DEMO_DIR)
	mkdir -p $(TOP_DEMO_DIR)
	target/release/reprocmp simulate --out-dir $(TOP_DEMO_DIR)/sim
	target/release/reprocmp serve --store $(TOP_DEMO_DIR)/store \
		--addr 127.0.0.1:0 --addr-file $(TOP_DEMO_DIR)/addr --telemetry-ms 100 & \
	while [ ! -s $(TOP_DEMO_DIR)/addr ]; do sleep 0.1; done; \
	ADDR=$$(cat $(TOP_DEMO_DIR)/addr); \
	target/release/reprocmp submit --addr $$ADDR \
		--input $(TOP_DEMO_DIR)/sim/pfs/run.rank0.v000040.ckpt \
		--name demo --version 1 && \
	target/release/reprocmp metrics --addr $$ADDR --prom && \
	target/release/reprocmp top --addr $$ADDR --frames 3 && \
	target/release/reprocmp shutdown --addr $$ADDR
	@echo "telemetry history persisted at $(TOP_DEMO_DIR)/store/telemetry.jsonl"

# Re-run every figure and table entry: results land in bench_results/
# (wall-clock ones as measured_*.json) and the profiles in tests/goldens/.
bench-figures:
	$(CARGO) run --release -p reprocmp-bench -- all
