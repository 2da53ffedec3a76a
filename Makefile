GO ?= go

.PHONY: all build perfbench-vet perfbench-smoke test race bench json-bench vet lint lint-dup fuzz crash chaos bench-compare throughput serve cluster

all: build vet test

build: perfbench-vet
	$(GO) build ./...

# perfbench/ is a nested module, so `go build ./...` above skips it. Vet
# it against this checkout so an internal API change cannot break the
# benchmark while every other check stays green.
perfbench-vet:
	cd perfbench && GOWORK=off $(GO) vet ./...

# Benchmark smoke: each gated perfbench workload for 4 s (about 8 s each
# with the build on 2 vCPUs). perfbench exits 0 even when its correctness
# check fails, so the verdict is read from the last JSON line it prints:
# it must say "correct":true and "failed":0.
perfbench-smoke:
	@for w in warm-quotes cold-quotes; do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 4 | grep '^{' | tail -n 1); \
		echo "$$w: $$last"; \
		echo "$$last" | grep -q '"correct":true' || { echo "perfbench-smoke: $$w failed its correctness check"; exit 1; }; \
		echo "$$last" | grep -Eq '"failed":0[,}]' || { echo "perfbench-smoke: $$w had failed operations"; exit 1; }; \
	done

test: vet
	$(GO) test ./...

# Race-detector run over the whole module. The parallel differential test
# (internal/pricing) forces GOMAXPROCS=4 and runs every pricing path with
# Workers=4, so this doubles as the shared-read correctness gate at CI
# scale factors.
race:
	$(GO) test -race ./...

vet: lint-dup
	$(GO) vet ./...

# The lowercase-name helper lives in internal/sqlengine/ast (LowerName);
# private copies used to accumulate in the checker/exec/plan layers and
# drift. Fail if a new one appears.
lint-dup:
	@if grep -rn 'func lower(' internal/disagree internal/sqlengine/exec internal/sqlengine/plan --include='*.go'; then \
		echo 'duplicate lower() helper: use ast.LowerName'; exit 1; fi

# Deprecated-wrapper gate. The context-free Quote*/Ask* convenience
# wrappers on Broker are frozen for compatibility (their replacements are
# Price and Purchase, which carry contexts, provenance and the
# approximate-pricing controls); fail if any non-test code outside their
# definitions in qirana.go still calls one. staticcheck — whose SA1019
# catches the same thing module-wide plus its full suite — runs when
# installed; locally without it the target degrades to the grep gate
# (CI installs and runs it).
lint: lint-dup
	@bad=$$(grep -rnE '\.(QuoteBatchWith|QuoteBatch|QuoteBundle|QuoteWith|Quote|AskWithRefund|Ask)\(' \
		--include='*.go' --exclude='*_test.go' cmd examples internal *.go \
		| grep -v '^qirana\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "$$bad"; \
		echo 'deprecated wrapper call: use Broker.Price / Broker.Purchase (see qirana.go Deprecated notes)'; \
		exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo 'lint: staticcheck not installed, skipping (CI runs it; go install honnef.co/go/tools/cmd/staticcheck@latest)'; fi

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Machine-readable pricing benchmarks (Fig 4d/5a/5b groups at workers 1
# and NumCPU); writes BENCH_pricing.json for cross-PR perf tracking.
json-bench:
	$(GO) run ./cmd/bench

# Quick fuzz passes: the SQL lexer+parser (seeded from the workload query
# corpus) and the tiered delta checker (random ± updates differenced
# against full re-runs), plus the committed regression corpora in
# testdata/fuzz.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/sqlengine/parser -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlengine/parser -fuzz FuzzPrepare -fuzztime $(FUZZTIME)
	$(GO) test ./internal/disagree -fuzz FuzzDeltaTiers -fuzztime $(FUZZTIME)

# Fault-injection suite under the race detector: the crash matrix
# kills-and-recovers the durable broker at every ledger/snapshot
# failpoint and every torn-write offset, asserting the recovered broker
# is bit-identical to a never-crashed twin (DESIGN.md §9), and the
# cluster torture kills the leader mid-purchase at every ledger
# failpoint and fails over to the WAL-tailing standby (DESIGN.md §12).
crash:
	$(GO) test -race -count=1 \
		-run 'Crash|Torn|Truncat|Durab|Recover|Ledger|Snapshot|Cluster' \
		. ./internal/durable ./internal/httpapi
	$(GO) test -race -count=1 ./internal/failpoint

# Shard chaos suite under the race detector (DESIGN.md §14): every shard
# behind a fault-injecting proxy (drops, 500s, delays, trickle bodies,
# flapping, hard-down). Transient faults must leave prices AND Stats
# bit-identical to a never-faulted twin; a hard outage must serve
# degraded upper-bound quotes (never a wrong price, never a 503 for a
# quote), refuse purchases, and reconcile exact after heal. Also covers
# the breaker/retry/hedge unit layer and the standby promotion gate.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Degraded|Breaker|Hedge|Retry|Flap|Partition|EWMA|Backoff|ParentCancel|FaultCounters|FailoverGate|ProbeLoop' \
		. ./internal/shard ./internal/httpapi ./cmd/qiranad

# Re-run the pricing benchmarks at a reduced scale and compare against the
# committed BENCH_pricing.json; exits nonzero on a >20% regression. The
# host's noise comes in multi-minute fast/slow windows, so the gate takes
# the best of many reps while the committed baseline is a single
# unmined measurement — false positives need a real slowdown, not an
# unlucky window.
bench-compare:
	$(GO) run ./cmd/bench -support 250 -min-time 300ms -reps 9 \
		-out /tmp/BENCH_new.json -compare BENCH_pricing.json

# Broker-frontend quote throughput only (repeated vs unique traffic mixes,
# 1 and NumCPU concurrent clients); prints the warm/cold speedup.
throughput:
	$(GO) run ./cmd/bench -groups quote -out /tmp/BENCH_quote.json

# Start the HTTP pricing daemon on localhost:8080 (world dataset, $$100).
# See README "Running qiranad" for the endpoint surface and curl examples.
serve:
	$(GO) run ./cmd/qiranad -dataset world -price 100 -support 1000 -addr localhost:8080

# Start a demo cluster in one process: a durable fan-out router on :8090
# over 3 in-process shard workers, plus a read-only standby mirror on
# :8091 tailing the router's ledger. See README "Running a cluster".
CLUSTER_DATA ?= /tmp/qirana-cluster
cluster:
	$(GO) run ./cmd/qirouter -cluster 3 -dataset world -price 100 -support 1000 \
		-data $(CLUSTER_DATA) -addr localhost:8090 -standby-addr localhost:8091
