GO ?= go

.PHONY: check build vet test race fuzz bench bench-pairs soak failover-soak vuln loc

# check runs the steps of CI's test job: build, vet, the full suite and
# bench/'s own (CI runs the suite shuffled, three times), the race pass
# (CI's Race step is `make race`) and the vulnerability scan when the
# scanner is installed. CI runs the job at GOMAXPROCS 1, 2 and 4.
check: build vet test race vuln

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# bench/ is a module of its own that names the codec's option and layout
# fields; ./... does not descend into it, so it is vetted and tested here.
test:
	$(GO) test ./...
	cd bench && $(GO) vet . && $(GO) test .

# The data-race pass over everything (the reliable-transport
# fault-injection tests among it), then twice more over the packages that
# fan work out through internal/par or internal/framepipe, the ack path —
# session lanes, store and commit group, replication link — and the server
# node and the chaos scenarios that crash it.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/par ./internal/cluster ./internal/core ./internal/sparse \
		./internal/stream ./internal/framepipe ./internal/reliable ./internal/store ./internal/replica \
		./internal/node ./cmd/dbgc-server ./cmd/dbgc-loadgen

# Non-test Go lines per package outside bench/, and the total: the figure
# simplicity exit criteria and ROADMAP re-anchors are counted in.
loc:
	@bash scripts/loc.sh

# The repository's benchmark (BENCHMARK.json, bench/README.md): one of the
# five workloads, built from source and run for 15 s. TRACE=1 reports the
# per-layer metrics instead of the end-to-end ones. Speed claims are rows of
# this, before and after; `.bench_build/dbgc-bench -compare a.jsonl b.jsonl`
# compares two `-out` files.
WORKLOAD ?= codec_city
SEED ?= 1
TRACE ?= 0
bench:
	bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED) --trace $(TRACE)

# The campaign behind a speed claim: PAIRS alternated runs of PARENT (a
# revision, checked out under .bench_build/parent) and of this tree on one
# workload and seed, then `-compare` and each side's medians, quartiles and
# pairs won. See scripts/bench-pairs.sh.
PARENT ?= HEAD
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(PAIRS)

# Chaos soak: concurrent tenants through fault-injected links and
# crash-prone disks with induced crash-restarts, under the race detector.
# Fails if any acked frame is missing or corrupt after the final restart.
# FAULTNET_SEED=n replays a specific fault schedule.
SOAK_FLAGS ?= -tenants 4 -clients 2 -frames 400 -crashes 3 \
	-shed-high 48 -shed-low 12 -out .bench_build/soak.json
soak:
	mkdir -p .bench_build
	$(GO) run -race ./cmd/dbgc-loadgen $(SOAK_FLAGS)

# Replication failover soak: primary→follower pair (an ack means both
# disks) under link chaos; severs the replication link (healthz must
# degrade, then recover), kills the primary mid-stream, promotes the
# follower, and cold-verifies every acked frame in the follower's store.
FAILOVER_FLAGS ?= -failover -tenants 4 -clients 2 -frames 100 \
	-out .bench_build/failover-soak.json
failover-soak:
	mkdir -p .bench_build
	$(GO) run -race ./cmd/dbgc-loadgen $(FAILOVER_FLAGS)

# Known-vulnerability scan. The scanner is not vendored: the target is a
# no-op (with a note) when govulncheck is absent, so offline checkouts
# still pass `make check`; CI installs it explicitly.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Short fuzz sweeps over the wire decoder, the stream container's reader and
# every geometry decoder, each
# running under DecodeLimits so a decompression bomb fails the target, over
# the three differential targets (polyline candidate index, sliding
# consensus line, arithmetic coder) that hold an optimized kernel to its
# reference, and over the replication payload decoders, whose accepted
# values must survive a re-encode.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/netproto
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/sparse
	$(GO) test -fuzz=FuzzOrganizeMatchesReference -fuzztime=$(FUZZTIME) ./internal/polyline
	$(GO) test -fuzz=FuzzConsensusMatchesReference -fuzztime=$(FUZZTIME) ./internal/polyline
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/kdtree
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/gpcc
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/quadtree
	$(GO) test -fuzz=FuzzBlockPack -fuzztime=$(FUZZTIME) ./internal/blockpack
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/streamcodec
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/octree
	$(GO) test -fuzz=FuzzDecompress -fuzztime=$(FUZZTIME) ./internal/arith
	$(GO) test -fuzz=FuzzCoderMatchesReference -fuzztime=$(FUZZTIME) ./internal/arith
	$(GO) test -fuzz=FuzzShardedStream -fuzztime=$(FUZZTIME) ./internal/arith
	$(GO) test -fuzz=FuzzDecompress -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/stream
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/replica
