# hetsim build and verification targets.
#
# `make check` is the tier-1 verification gate: build + gofmt + vet + full
# test suite + race-detector pass over the experiment harness (the only
# part of the tree that runs simulations concurrently) + the hetbench
# smoke test + the end-to-end scenarios on real binaries.

GO ?= go

.PHONY: all build fmt test race vet check repro-check traffic-cover bench-smoke bench bench-compare bench-sweep bench-serve serve cluster cluster-smoke trace-smoke topology-smoke migration-smoke tune-smoke probe-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fail when any Go file is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# Race-check the packages that exercise concurrency: the worker-pool
# sweep executor, every figure sweep dispatched through it, the daemon's
# job queue / two-tier cache, the cluster coordinator's dispatch and
# heartbeat paths, the autotuner's multi-worker searches, and the
# telemetry recorder fed by all of them in parallel. Concurrent runs hand
# their hardware to one another through package-level pools: released
# engines with their event queues' link and payload slabs (sim),
# memory-system part sets (memsys: slices with their L2 tag arrays, MSHR
# files and DRAM channels, access records, page-count tables), SM sets
# with L1s and warp contexts (gpu), page tables (vm) and warp-program
# slabs with their RNG registers (workloads), and they share the store of
# recorded access streams (workloads). cache and dram hold the reset of
# each reused tag array, MSHR file and channel; experiments' hand-over
# tests pass parts between four goroutines.
race:
	$(GO) test -race ./internal/sim/ ./internal/memsys/ ./internal/cache/ ./internal/dram/ ./internal/vm/ ./internal/gpu/ ./internal/migrate/ ./internal/experiments/... ./internal/serve/ ./internal/cluster/ ./internal/telemetry/ ./internal/metrics/ ./internal/tune/ ./internal/workloads/

vet:
	$(GO) vet ./...

check: build fmt vet test race bench-smoke
	$(GO) run ./cmd/hme2e topology migration tune probe

# Full-fidelity reproduction gate: re-run `hmexp all` and byte-compare its
# output with the recorded experiments_full.txt, less the `sweep:` lines
# (they carry wall time). A change that moves figure bytes on purpose
# regenerates the file the same way and says why in CHANGES.md. About
# 100 s of simulation on 2 cores, so CI runs it as its own job.
repro-check:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/hmexp all > "$$tmp" && \
	grep -v '^  sweep:' "$$tmp" | cmp - experiments_full.txt && \
	echo "repro-check: hmexp all reproduces experiments_full.txt"

# Traffic coverage: the repository functions that no end-to-end path
# enters, the candidates for the next deletion. It builds hmexp and
# hetbench with coverage over every hetsim package (hetbench through
# `go -C bench`, so no file under bench/ changes) and runs `hmexp
# -shrink 8 all` and every hetbench workload once at -quick, untraced and
# at -trace 1 (its layer replay is the only caller of the vm and memsys
# access paths outside a simulation). Then it runs the six hme2e
# scenarios; GOFLAGS makes hme2e's own `go build` produce covered
# binaries that write to the same GOCOVERDIR. It prints each function no
# run entered. About 55 s on 2 cores; not part of `make check` or CI.
traffic-cover:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/cov" && \
	$(GO) build -cover -coverpkg=hetsim/... -o "$$tmp/hmexp" ./cmd/hmexp && \
	$(GO) -C bench build -cover -coverpkg=hetsim/... -o "$$tmp/hetbench" ./hetbench && \
	export GOCOVERDIR="$$tmp/cov" && \
	"$$tmp/hmexp" -shrink 8 all > /dev/null && \
	"$$tmp/hetbench" -quick -seconds 0 > /dev/null && \
	"$$tmp/hetbench" -quick -seconds 0 -trace 1 -trace-dir "$$tmp/trace" > /dev/null && \
	GOFLAGS='-cover -coverpkg=hetsim/...' $(GO) run ./cmd/hme2e cluster trace topology migration tune probe > /dev/null && \
	$(GO) tool covdata func -i "$$tmp/cov" | awk '$$NF == "0.0%" { print $$1, $$2 }'

# hetbench smoke test: every benchmark workload at -quick scale, including
# the check that each workload's default-seed output digest still matches
# bench/hetbench/golden.json. bench/ is its own Go module, so `make test`
# does not reach it.
bench-smoke:
	cd bench && $(GO) test ./...

# Tier-1 performance snapshot: the event-engine microbenchmarks plus the
# figure-level simulator benchmarks, with allocation counts, captured to a
# per-commit JSON artifact (BENCH_<sha>.json) via cmd/benchjson. The raw
# `go test -bench` text is tee'd so benchstat can diff two snapshots.
BENCH_SHA := $(shell git rev-parse --short HEAD)
bench:
	{ $(GO) test -bench 'BenchmarkEngine' -run - -benchmem ./internal/sim/ && \
	  $(GO) test -bench 'BenchmarkMSHRAllocateFill' -run - -benchmem ./internal/cache/ && \
	  $(GO) test -bench 'BenchmarkSpaceFirstTouch' -run - -benchmem ./internal/vm/ && \
	  $(GO) test -bench 'BenchmarkPrograms' -run - -benchmem ./internal/workloads/ && \
	  $(GO) test -bench 'BenchmarkMigrationEpoch' -run - -benchmem ./internal/migrate/ && \
	  $(GO) test -bench 'BenchmarkTuneSearch' -run - -benchmem -benchtime 1x ./internal/tune/ && \
	  $(GO) test -bench 'BenchmarkSimulatorThroughput' -run - -benchmem . && \
	  $(GO) test -bench 'BenchmarkFig2aBandwidthSensitivity' -run - -benchmem -benchtime 1x . ; } \
	  | tee bench_$(BENCH_SHA).txt
	$(GO) run ./cmd/benchjson -commit $(BENCH_SHA) < bench_$(BENCH_SHA).txt > BENCH_$(BENCH_SHA).json
	@echo wrote BENCH_$(BENCH_SHA).json

# Benchmark guardrail: take a fresh snapshot and diff it against the
# committed baseline, failing on regressions beyond BENCH_THRESHOLD
# percent on ns/op. CI runs this non-blocking (shared runners are noisy);
# locally it is the quick "did I slow the simulator down" check. The
# baseline is the newest committed snapshot; older BENCH_*.json files stay
# as history.
BENCH_BASELINE ?= BENCH_01e67f4.json
BENCH_THRESHOLD ?= 25
bench-compare: bench
	$(GO) run ./cmd/benchjson compare -threshold $(BENCH_THRESHOLD) \
	  $(BENCH_BASELINE) BENCH_$(BENCH_SHA).json

# Sweep-scaling headline: the Figure 2a grid with one worker vs all CPUs.
bench-sweep:
	$(GO) test -bench 'Fig2aSweep' -run - -benchtime 1x ./internal/experiments/

# Daemon serving-path headline: HTTP round-trip latency of a fully cached
# figure request against an in-process hmserved (job dedup, no simulation).
bench-serve:
	$(GO) test -bench 'ServeFigureRoundTrip' -run - -benchmem ./internal/serve/

# Run the simulation daemon locally (ctrl-C drains gracefully). Results
# persist in .hmserved-cache/ across restarts; see EXPERIMENTS.md.
serve:
	$(GO) run ./cmd/hmserved

# End-to-end checks on real binaries, one cmd/hme2e scenario per target
# (each scenario's doc comment lists its assertions): the same bytes from
# local, daemon and cluster renders and with probes on, and exit 2 for
# every refused invocation. Daemons bind 127.0.0.1:0, so `make -j` runs
# targets side by side; `make check` runs the topology, migration, tune
# and probe scenarios in one hme2e process.
#
# cluster starts a 3-worker hmserved fleet on 127.0.0.1:18081-18083
# (ctrl-C drains and stops all of them); point hmexp -cluster or
# hmserved -cluster at it. trace-smoke leaves trace-smoke.json, a
# Chrome/Perfetto timeline of a traced fleet sweep, which CI uploads.
cluster:
	$(GO) run ./cmd/hme2e fleet 3

cluster-smoke:
	$(GO) run ./cmd/hme2e cluster

trace-smoke:
	$(GO) run ./cmd/hme2e trace

topology-smoke:
	$(GO) run ./cmd/hme2e topology

migration-smoke:
	$(GO) run ./cmd/hme2e migration

tune-smoke:
	$(GO) run ./cmd/hme2e tune

probe-smoke:
	$(GO) run ./cmd/hme2e probe

clean:
	$(GO) clean ./...
