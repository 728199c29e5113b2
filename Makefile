# Local targets mirroring .github/workflows/ci.yml, so `make <job>`
# reproduces exactly what CI runs.

GO ?= go

.PHONY: all build vet fmt fmt-check test race bench docs ci \
	lint integration integration-race fuzz-smoke obs-smoke \
	bench-scale bench-scale-smoke bench-durability bench-flow \
	perfbench-test linedelta

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Rewrites files in place.
fmt:
	gofmt -w .

# The CI check: fails if any file needs formatting.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run NONE -bench . -benchtime 1x ./...
	$(GO) test -run NONE -bench 'TopK|TimeToFirstResult|IndexJoin|PagedScan' -benchtime 5x .

# Machine-readable benchmark record: msgs / sim-ms / ttfr-ms / bytes
# for the topk, index-join (baseline vs warm routing cache), paged
# full-scan, churn top-k (single-owner vs replica-balanced reads, 10%
# dead peers) and group-by aggregation (peer-side pushdown vs
# centralized fallback) scenarios. Fails if the fast path, the churn
# failover or the aggregation pushdown regresses (see cmd/benchjson).
# CI uploads the file as an artifact.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR5.json

# The scale harness record: msgs-per-routed-lookup at 128..1024 peers
# with a log-linear fit (fails if the largest point exceeds 2x the
# log-extrapolation), Zipf hot-shard load spread with replica-balanced
# vs pinned reads, two-cluster WAN latency scenario, and a live
# join/split/merge churn run that must stay exact. CI runs the smoke
# variant on PRs and the full sweep nightly (see bench-scale in
# .github/workflows/ci.yml).
bench-scale:
	$(GO) run ./cmd/benchjson -scale -out BENCH_SCALE.json

bench-scale-smoke:
	$(GO) run ./cmd/benchjson -scale -sizes 128,256 -out BENCH_SCALE.json

# The durability record: one restart-rejoin run on a WAL-backed simnet
# peer — kill -9, recover, catch up by digest delta — against the
# empty-disk full-sync baseline. Fails if recovery loses an acked
# write, a rejoined replica misses exactness, or the delta catch-up
# stops being cheaper than full sync on messages or bytes. Simnet
# benches run fsync-off (see docs/architecture.md); the fsync cost is
# a real-disk property the simulated network cannot price.
bench-durability:
	$(GO) run ./cmd/benchjson -durability -out BENCH_PR8.json

# The flow-control record: the slow-replica mixed workload with credit
# windows on and off, plus the fsync-always group-commit comparison.
# Fails if flow control stops lowering the per-peer in-flight byte
# peak, worsens the throttled replica's tail stall, dents exactness in
# either variant, or group commit stops beating one fsync per write.
bench-flow:
	$(GO) run ./cmd/benchjson -flow -out BENCH_PR9.json

# The benchmark (perfbench/, a module of its own) compiles against
# the optimizer, the physical compiler and the cluster front ends; vet
# and test it so an API change that breaks it fails here, not when
# the benchmark next runs. Its tests include the sim-analytic
# determinism self-test.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Lines added, removed and net for non-test Go, Go tests and docs
# between BASE (any git ref) and the work tree, untracked files
# included — the net line delta every change states.
linedelta:
	@test -n "$(BASE)" || { echo "usage: make linedelta BASE=<ref>"; exit 2; }
	@./scripts/linedelta.sh $(BASE)

# The docs job: broken intra-repo markdown links fail, sources stay
# vetted and formatted.
docs:
	$(GO) test -run 'TestDocs' -v .
	$(GO) vet ./...
	@$(MAKE) fmt-check

# staticcheck with the checked-in staticcheck.conf. CI pins the tool
# version (see .github/workflows/ci.yml); locally this expects
# staticcheck on PATH and is not part of the default `ci` target so a
# machine without it can still reproduce the test jobs.
lint:
	staticcheck ./...

# The multi-process suite: builds the node daemon, launches a
# loopback-TCP cluster of real OS processes, and requires exact
# equivalence with the in-process simnet reference (including the
# kill -9 churn case). Gated behind UNISTORE_INTEGRATION so plain
# `go test ./...` stays hermetic.
integration:
	UNISTORE_INTEGRATION=1 $(GO) test -v -timeout 10m ./integration/

# Same suite with both the harness and the daemon binary built -race.
integration-race:
	UNISTORE_INTEGRATION=1 UNISTORE_RACE=1 \
		$(GO) test -race -v -timeout 10m -count=1 ./integration/

# Observability smoke: boots a traced 3-process cluster with -debug
# endpoints and curls /metrics, /healthz, /trace/recent and pprof the
# way a monitoring stack would — core series must be non-zero and the
# ranked query's trace tree assembled. CI's integration job runs it.
obs-smoke:
	./scripts/obs-smoke.sh

# Bounded fuzzing of the wire payload codec, the TCP frame reader and
# WAL crash recovery: none may panic on arbitrary bytes, and whatever
# log prefix recovery accepts must round-trip a clean close.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodePayload -fuzztime 30s ./internal/pgrid/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 30s ./internal/netx/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/store/wal/

ci: fmt-check build vet test race bench docs perfbench-test integration integration-race obs-smoke fuzz-smoke
