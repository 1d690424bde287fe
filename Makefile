# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-fast test-slow lint lint-repro lint-graph bench \
	bench-quick bench-check bench-report bench-promote gradcheck \
	reproduce report api serve-smoke serve-checkpoint-smoke serve-net-smoke \
	index-smoke train-smoke clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The two CI tiers: the fast tier runs on every interpreter of the matrix,
# the slow tier (kill-and-resume integration, worker pools) once on 3.11.
test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-slow:
	$(PYTHON) -m pytest tests/ -m slow

# Style gate (configuration lives in pyproject.toml).
lint:
	ruff check src/ tests/ tools/ benchmarks/
	ruff format --check src/ tests/ tools/ benchmarks/

# Repo-aware static analysis (repro.lint): per-module concurrency, RNG
# discipline, atomic-IO, and metric/token-drift rules plus the
# interprocedural lock-order/blocking/deadline/resource flow rules.
# Stdlib-only; composes with ruff rather than replacing it.  Warm runs
# replay the SHA-keyed summary cache (tools/.lint_cache.json); the
# wall-time gate matches the CI fast tier.
lint-repro:
	$(PYTHON) tools/run_lint.py --baseline tools/lint_baseline.json --max-seconds 10

# Dump the resolved call graph + lock-acquisition graph (what
# RL008/RL009 reason over) as JSON, for debugging a flow finding.
lint-graph:
	$(PYTHON) tools/run_lint.py --graph

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The quick-mode suites the CI slow tier runs: each emits its
# BENCH_<name>.json through the shared repro.bench emitter, feeding the
# regression gate below.
bench-quick:
	$(PYTHON) -m pytest \
	  benchmarks/test_train_step_throughput.py \
	  benchmarks/test_serving_throughput.py \
	  benchmarks/test_serving_degradation.py \
	  benchmarks/test_netserve_load.py \
	  benchmarks/test_index_retrieval.py -q -rs

# CI regression gate: compare BENCH_*.json against the committed
# baselines; exits non-zero on any out-of-tolerance regression.
bench-check:
	$(PYTHON) -m repro bench check

# Markdown trend report (sparklines per metric) from the history store.
bench-report:
	$(PYTHON) -m repro bench report

# Intentionally move the baselines to the current results (journaled in
# benchmarks/baselines/promotions.jsonl).  Pass NOTE="why".
bench-promote:
	$(PYTHON) -m repro bench promote --note "$(NOTE)"

# Finite-difference verification of every layer/loss gradient
# (repro.diagnostics sweep; exits non-zero on any mismatch).
gradcheck:
	$(PYTHON) tools/run_gradcheck.py

# Regenerate every table/figure straight from the CLI (single seed).
reproduce:
	$(PYTHON) -m repro reproduce --table all --out benchmarks/results

# Rebuild EXPERIMENTS.md from the latest benchmark outputs.
report:
	$(PYTHON) -c "from repro.experiments import generate_report; \
	generate_report('benchmarks/results', 'EXPERIMENTS.md')"

# Regenerate the checked-in API reference.
api:
	$(PYTHON) tools/gen_api_docs.py docs/api.md

# Pipe a few JSON-lines requests through the serving loop and validate
# every response (uses the stub encoder; no checkpoint needed).
serve-smoke:
	printf '%s\n' \
	  '{"op": "ping"}' \
	  '{"op": "embed", "names": ["link failure", "paging storm"]}' \
	  '{"op": "embed", "names": ["link failure"]}' \
	  '{"op": "stats"}' \
	  | $(PYTHON) -m repro serve --stats --max-wait-ms 2 \
	  | $(PYTHON) tools/check_serve_smoke.py

# Serve a real checkpoint: pretrain a tiny KTeleBERT (3 + 3 steps), pipe
# a multi-name and single-name embeds through `serve --checkpoint`, and
# check every served vector equals `repro encode`'s within 2e-6 (see
# tools/run_serve_checkpoint_smoke.py).  Bounded by timeout so a wedged
# server fails the step instead of stalling CI.
serve-checkpoint-smoke:
	timeout 300 $(PYTHON) tools/run_serve_checkpoint_smoke.py

# Boot the TCP frontend as a real subprocess, drive a short open-loop
# mix over the tenant quota with the load generator, and SIGTERM it:
# asserts zero protocol errors, structured rate-limit rejections, and a
# clean drain (see tools/run_netserve_smoke.py).  Bounded by timeout so
# a wedged server fails the step instead of stalling CI.
serve-net-smoke:
	timeout 120 $(PYTHON) tools/run_netserve_smoke.py

# Build a 10k-entity synthetic ANN index, query a few stored names, and
# dump its manifest stats — the retrieval tier end to end through the
# real CLI.  Bounded by timeout so a wedged build fails the step instead
# of stalling CI.
index-smoke:
	rm -rf .index-smoke
	timeout 120 $(PYTHON) -m repro index build --dir .index-smoke \
	  --synthetic 10000 --dim 32
	timeout 60 $(PYTHON) -m repro index query --dir .index-smoke \
	  --name entity-0 --name entity-42 --k 5
	timeout 60 $(PYTHON) -m repro index stats --dir .index-smoke
	rm -rf .index-smoke

# Exercise the fault-tolerant training runtime end to end: train two steps,
# pause (simulated interruption), resume from the snapshot, finish the
# schedule, and check the replayed journal saw every step exactly once.
train-smoke:
	rm -rf .train-smoke
	$(PYTHON) -m repro train --run-dir .train-smoke --size smoke \
	  --steps 4 --checkpoint-every 2 --stop-after 2
	$(PYTHON) -m repro train --run-dir .train-smoke --size smoke \
	  --steps 4 --checkpoint-every 2
	$(PYTHON) -c "from repro.serving import replay_journal; \
	snap = replay_journal('.train-smoke/journal.jsonl').snapshot(); \
	assert snap['counters']['train.steps'] == 4, snap; \
	assert snap['counters']['train.events.run_complete'] == 1, snap; \
	assert snap['counters']['train.events.resume'] == 1, snap; \
	print('train-smoke ok:', snap['counters'])"
	rm -rf .train-smoke

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks .train-smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
