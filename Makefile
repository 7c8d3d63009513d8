# Tier-1 gate: build, tests, and a campaign smoke run.
.PHONY: all build test smoke check faults-smoke kill-resume obs-smoke serve-smoke serve-chaos shard-smoke dist-smoke perf-smoke bench bench-check clean

all: build

build:
	dune build

test:
	dune runtest

# Two workers over the four-job matrix: exercises the pool, the memo cache
# and the report path end-to-end in a few hundred milliseconds.
smoke: build
	dune exec bin/mechaverify.exe -- campaign --tiny --jobs 2

check: build test smoke

# Fault-injection smoke: under injected chaos every job must end in a
# definite verdict or a graceful degradation — never failed or timed out
# (retry heals crashes, voting masks lies, the breaker degrades).
faults-smoke: build
	dune exec bin/mechaverify.exe -- campaign --tiny --jobs 2 \
	  --inject crash+flaky --seed 11 --votes 3 --breaker 24 \
	  --report _build/faults-smoke.json
	! grep -q '"verdict": "failed"' _build/faults-smoke.json
	! grep -q '"verdict": "timed_out"' _build/faults-smoke.json

# Kill-and-resume: SIGKILL a journaled run mid-flight, then resume the
# journal and require the verdict of an uninterrupted run (exit 0 = proved).
kill-resume: build
	rm -rf _build/resume && mkdir -p _build/resume
	dune exec bin/mechaverify.exe -- export --dir _build/resume/aut
	-timeout -s KILL 0.4 ./_build/default/bin/mechaverify.exe run \
	  --context _build/resume/aut/railcab_context.aut \
	  --legacy _build/resume/aut/railcab_legacy_correct.aut \
	  --property true --inject hang --seed 5 \
	  --journal _build/resume/kill.journal
	test -s _build/resume/kill.journal
	./_build/default/bin/mechaverify.exe run \
	  --context _build/resume/aut/railcab_context.aut \
	  --legacy _build/resume/aut/railcab_legacy_correct.aut \
	  --property true --resume _build/resume/kill.journal

# Observability smoke: a traced, metered campaign must emit a loadable
# Chrome trace (a well-formed trace_event JSON array) and Prometheus text
# with no duplicate headers or samples.
obs-smoke: build
	rm -rf _build/obs && mkdir -p _build/obs
	dune exec bin/mechaverify.exe -- campaign --tiny --jobs 2 --log-level quiet \
	  --trace _build/obs/trace.json --metrics-out _build/obs/metrics.prom
	dune exec bench/bench_check.exe -- validate-trace _build/obs/trace.json
	dune exec bench/bench_check.exe -- validate-metrics _build/obs/metrics.prom

# Verification-service smoke: daemon up on an ephemeral port, two concurrent
# tenants stream identical verdicts, /metrics scrapes the serve_* series,
# SIGTERM drains clean within the deadline and leaves a cache snapshot.
serve-smoke: build
	bash scripts/serve_smoke.sh

# Chaos equivalence gate: a seeded fault proxy (delays, torn writes, resets,
# response garbage) between retrying clients and the daemon; verdicts must
# stay byte-identical to a fault-free run, every job must execute exactly
# once, and a SIGKILL mid-campaign must recover through the write-ahead log.
serve-chaos: build
	bash scripts/serve_chaos.sh

# Sharded out-of-core smoke: the tiny campaign through --shards 4 under a
# memory budget must produce canonical bytes identical to the unsharded
# pipeline, engage disk spilling when the budget forces it, and leave no
# spill scratch behind — including after a sharded daemon's SIGTERM drain.
shard-smoke: build
	bash scripts/shard_smoke.sh

# Cross-process distributed smoke: the tiny campaign through --dist-workers 2
# (forked shard-worker processes), byte-identical canonicals, a SIGKILLed
# worker mid-campaign recovered invisibly, clean teardown.
dist-smoke: build
	bash scripts/dist_smoke.sh

# Job-benchmark smoke: short traced runs of two workloads.  synth's output
# checks abort the run unless the memoized canonical report equals a
# memo:false reference, per-job cache counters repeat across rounds and the
# traced replica agrees with Campaign.run_spec.  wide_sharded's abort it
# unless every sharded and distributed check matches Compose.parallel +
# Checker in verdict and structure and spill counts repeat across rounds.
# The Chrome traces they write must then validate.
PERF_OUT = $(or $(CARGO_TARGET_DIR),.bench_build)/perfbench-out

perf-smoke: build
	python3 perfbench/run.py --workload synth --seed 1 --seconds 3 --trace 1
	dune exec bench/bench_check.exe -- validate-trace $(PERF_OUT)/trace-synth.json
	python3 perfbench/run.py --workload wide_sharded --seed 1 --seconds 3 --trace 1
	dune exec bench/bench_check.exe -- validate-trace $(PERF_OUT)/trace-wide_sharded.json

bench:
	dune exec bench/main.exe

# Bench regression check: rerun the machine-readable benchmarks and compare
# against the committed baseline with 25% slack.  Only slowdowns beyond the
# slack fail; speedups and new benchmarks are informational (CI runs this
# non-blocking — shared runners are too noisy for a hard gate).  The run
# covers every group, so the hard assertions inside groups (t18_sharded's
# shards:1 overhead and spill engagement, t19_dist's verdict identity and
# coordinator residency) run here too.
bench-check: build
	dune exec bench/main.exe -- --json _build/BENCH_run.json
	dune exec bench/bench_check.exe -- compare bench/BENCH_baseline.json \
	  _build/BENCH_run.json --slack 0.25

clean:
	dune clean
