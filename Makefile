# Development targets. `make ci` is the gate: gofmt + vet + build + hhlint + the
# tier-1 tests at three core counts + the race, chaos and crash tiers + a
# 20-second fuzz smoke + a 1-iteration smoke run of every go-test
# benchmark + a short traced run of the repository benchmark (bench/).

GO ?= go

.PHONY: all fmt vet build lint test race race-proofdb chaos crash fuzz-smoke bench-smoke bench loc ci

all: build

# Formatting gate: fails when gofmt would rewrite any file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# hhlint: the repo's own static-analysis suite (internal/analysis). Exit 0
# on a clean tree, 1 on findings, so CI fails fast. One `go list -deps
# -export` call names the packages and compiles the export data their
# imports are read from; loading and type-checking is most of the wall
# time, and the four passes are per-package and intra-procedural. See
# DESIGN.md "Static analysis" for the pass inventory, the time split and
# the suppression policy.
lint:
	$(GO) run ./cmd/hhlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The explicit timeout is for internal/veloct alone: its OoO sweeps take
# 9-11 min under the race detector on a 2-core host, past go test's
# 10-minute default once the other packages' binaries compete for the cores.
# Every other package finishes within ~3 min (internal/analysis in ~4 s);
# the whole target takes ~13 min.
race:
	$(GO) test -race -timeout 30m ./...

# Focused race tier for the persistence layer: the proofdb package plus the
# concurrent snapshot/flush paths in the core engine. The regex matches by
# prefix so every TestConcurrent* under internal/... joins this tier
# automatically (currently: TestConcurrentSnapshotWhileLearn and
# TestConcurrentAttachFlushLastErr — Persist racing Flush, Attach and
# LastFlushErr — in internal/hhoudini/persist_test.go,
# TestConcurrentMonotoneMemo — memo stores and lookups racing
# SnapshotData/Restore — in internal/hhoudini/cache_test.go,
# TestConcurrentMergeFlushSnapshot in internal/proofdb, the multi-session
# service-shape tests TestConcurrentMultiSession* in
# internal/hhoudini/multisession_test.go, TestConcurrentConeFingerprint
# and TestConcurrentRegSupport — the first use of the support table raced
# — in internal/circuit, and TestConcurrentMine — parallel lookups in one
# predicate table — in internal/veloct).
race-proofdb:
	$(GO) test -race ./internal/proofdb/
	$(GO) test -race -run 'TestConcurrent' ./internal/...

# Chaos tier: fault-injection (internal/faultinject) and cancellation
# robustness, race-enabled. The regex matches by prefix, so every
# TestChaos* / TestCancel* / TestInterrupt* anywhere in the module joins
# this tier automatically (currently: forced solver Unknowns, solvers
# sharing one stop flag, injected worker panics, failed proof-store writes,
# stretched queries, mid-Learn cancellation sweeps, the root-package OoO
# cancellation acceptance test, and the service layer's injected job
# delays/failures and drain-mid-load acceptance). See DESIGN.md
# "Robustness & fault isolation" and "Service layer".
chaos:
	$(GO) test -race -run 'TestChaos|TestCancel|TestInterrupt' ./...

# Crash-point torture tier: re-execs the proofdb test binary and kill -9s
# it at each of the six injected crash points — before, halfway through and
# after an append, after its fsync, and on either side of the rewrite's
# rename — then asserts prefix-consistent recovery with loss bounded by the
# sync policy (zero under SyncEveryRecord). The truncate-at-every-byte-
# offset sweep covers the byte-granular torn-tail space, and the kill-9
# service test proves the warm restart end to end.
crash:
	$(GO) test -run 'TestCrash' ./internal/proofdb/
	$(GO) test -run 'TestKill9' ./internal/serve/

# Ten seconds each of two differential fuzz targets past their seed
# corpora. One is the SAT core's: random incremental sessions with a forced
# learnt-DB reduction and arena compaction, every verdict checked against
# brute-force enumeration. The other is the cone key, which guards the
# soundness of every memo transfer: random small cones checked against the
# map-based definition, embedding invariance and a brute-force
# expression-tree comparison.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzArenaVsBruteForce$$' -fuzztime 10s ./internal/sat
	$(GO) test -run '^$$' -fuzz '^FuzzConeFingerprint$$' -fuzztime 10s ./internal/circuit

# One iteration of every benchmark: catches bit-rot in the harness without
# paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark (bench/README.md): the four workloads, one child
# process each, every verdict answer-checked and audited.
bench:
	$(GO) run ./bench -all

# Non-test Go lines — the number ROADMAP aim 2 tracks — and the share of it
# in the six packages the simplicity work shrinks.
LOC_PKGS = hhoudini proofdb sat circuit analysis veloct

loc:
	@printf 'non-test Go lines:          '
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@for p in $(LOC_PKGS); do \
		printf 'of which %-19s' "internal/$$p:"; \
		find ./internal/$$p -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l; \
	done

# The gate. After the tiers above: tier-1 uncached at three scheduler widths
# (an assertion that holds at one core count only, or only in a cached `ok`,
# fails here), then a short traced run of the real benchmark, gated by its
# own answer checks, the audit and >= 0.95 span coverage (~40 s). `lint`
# runs after `build`, so the export data its `go list -export` call needs is
# already in the build cache; keep that order.
ci: fmt vet build lint race race-proofdb chaos crash fuzz-smoke bench-smoke
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...
	$(GO) run ./bench -workload cold-seq -seed 1 -rounds 2 -trace 1
