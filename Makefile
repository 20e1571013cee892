GO ?= go

.PHONY: check fmt vet build test race bench-smoke rejoin-bench load load-smoke load-diff fuzz-smoke perfbench

check: fmt vet build test bench-smoke fuzz-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core ./internal/isis ./internal/server ./internal/agent ./internal/store ./internal/derr

bench-smoke:
	$(GO) test -run XXX -bench BenchmarkT1 -benchtime=1x .

# Short coverage-guided fuzz of the two codecs under the NFS wire path.
# Long runs are manual: go test -fuzz FuzzWireRoundTrip ./internal/wire
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzWireRoundTrip -fuzztime 10s ./internal/wire
	$(GO) test -run XXX -fuzz FuzzXDRRoundTrip -fuzztime 10s ./internal/xdr

# The repo benchmark's own tests, then a short large-file run. The run exits
# non-zero unless every read checks out and every acknowledged write is
# durable when the stopped stores are reopened from their on-disk layout.
perfbench:
	cd perfbench && $(GO) test ./...
	bash perfbench/run.sh --workload large-file --seed 1 --seconds 6 --trace 0

# A8 rejoin benchmark at full scale: a server in a 10k-segment group
# crashes, recovers its checkpoint+log store, and rejoins incrementally.
rejoin-bench:
	DECEIT_REJOIN_SEGS=10000 $(GO) run ./cmd/deceit-bench -exp A8

# Full open-loop load run (all four mixes + chaos); writes BENCH_<date>.json
# in the repo root. Commit the file to extend the perf trajectory.
load:
	$(GO) run ./cmd/deceit-load

# ~2s-per-mix smoke of the load harness and chaos plumbing under the race
# detector; this is what the CI load-smoke job runs.
load-smoke:
	$(GO) test -short -race ./internal/load ./internal/simnet

# Regression gate: run the standard mixes fresh (no chaos) and diff against
# the newest committed BENCH_*.json. Skips with a message when no baseline
# has been committed yet.
load-diff:
	@prev=$$(ls BENCH_*.json 2>/dev/null | sort | tail -1); \
	if [ -z "$$prev" ]; then \
		echo "load-diff: no committed BENCH_*.json baseline; skipping perf diff"; \
		echo "load-diff: run 'make load' and commit the result to arm the gate"; \
	else \
		echo "load-diff: baseline $$prev"; \
		$(GO) run ./cmd/deceit-load -chaos=false -out /tmp/BENCH_diff.json && \
		$(GO) run ./cmd/deceit-load -compare $$prev /tmp/BENCH_diff.json; \
	fi
