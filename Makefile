# Development targets. `make ci` is the gate: vet + build + hhlint + the
# tier-1 tests at three core counts + the race, chaos and crash tiers + a
# 1-iteration smoke run of every go-test benchmark + a short traced run of
# the repository benchmark (bench/).

GO ?= go

.PHONY: all vet build lint lint-cache test race race-proofdb chaos crash bench-smoke bench loc ci

all: build

vet:
	$(GO) vet ./...

# hhlint: the repo's own static-analysis suite (internal/analysis). Exit 0
# on a clean tree, 1 on findings, so CI fails fast; `-json` emits the same
# findings machine-readably. The interprocedural passes memoize function
# summaries in .hhcache/lintsumm.json, so a relint after a small edit only
# recomputes the edited packages and their dependents. See DESIGN.md
# "Static analysis" for the pass inventory and the suppression policy.
lint:
	$(GO) run ./cmd/hhlint ./...

# Summary-memo self-check: a cold run (memo deleted) and a warm run must
# produce byte-identical diagnostics, and the warm run must answer >0
# package summaries from the memo (the -v counter line on stderr).
lint-cache:
	mkdir -p .hhcache
	rm -f .hhcache/lintsumm.json
	$(GO) run ./cmd/hhlint -json ./... > .hhcache/lint-cold.json
	$(GO) run ./cmd/hhlint -json -v ./... > .hhcache/lint-warm.json 2> .hhcache/lint-warm.log
	cmp .hhcache/lint-cold.json .hhcache/lint-warm.json
	grep -E 'summary cache: [1-9][0-9]*/[0-9]+ packages' .hhcache/lint-warm.log
	rm -f .hhcache/lint-cold.json .hhcache/lint-warm.json .hhcache/lint-warm.log

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The explicit timeout is for internal/veloct: its OoO sweeps take ~9 min
# under the race detector on a 2-core host, past go test's 10-minute default
# once the other packages' binaries compete for the cores.
race:
	$(GO) test -race -timeout 30m ./...

# Focused race tier for the persistence layer: the proofdb package plus the
# concurrent snapshot/flush paths in the core engine. The regex matches by
# prefix so every TestConcurrent* under internal/... joins this tier
# automatically (currently: TestConcurrentSnapshotWhileLearn and
# TestConcurrentAttachFlushLastErr — Persist racing Flush, Attach and
# LastFlushErr — in internal/hhoudini/persist_test.go,
# TestConcurrentMergeFlushSnapshot in internal/proofdb, and the
# multi-session service-shape tests TestConcurrentMultiSession* in
# internal/hhoudini/multisession_test.go).
race-proofdb:
	$(GO) test -race ./internal/proofdb/
	$(GO) test -race -run 'TestConcurrent' ./internal/...

# Chaos tier: fault-injection (internal/faultinject) and cancellation
# robustness, race-enabled. The regex matches by prefix, so every
# TestChaos* / TestCancel* / TestInterrupt* anywhere in the module joins
# this tier automatically (currently: forced solver Unknowns and budget
# escalation, injected worker panics, failed proof-store writes, stretched
# queries, mid-Learn cancellation sweeps, the root-package OoO
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

# One iteration of every benchmark: catches bit-rot in the harness without
# paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark (bench/README.md): the four workloads, one child
# process each, every verdict answer-checked and audited.
bench:
	$(GO) run ./bench -all

# Non-test Go lines — the number ROADMAP aim 2 tracks — and the share of it
# in internal/hhoudini and internal/proofdb.
loc:
	@printf 'non-test Go lines:          '
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@printf 'of which internal/hhoudini: '
	@find ./internal/hhoudini -name '*.go' -not -name '*_test.go' | xargs cat | wc -l
	@printf 'of which internal/proofdb:  '
	@find ./internal/proofdb -name '*.go' -not -name '*_test.go' | xargs cat | wc -l

# The gate. After the tiers above: tier-1 uncached at three scheduler widths
# (an assertion that holds at one core count only, or only in a cached `ok`,
# fails here), then a short traced run of the real benchmark, gated by its
# own answer checks, the audit and >= 0.95 span coverage (~40 s).
ci: vet build lint lint-cache race race-proofdb chaos crash bench-smoke
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...
	$(GO) run ./bench -workload cold-seq -seed 1 -rounds 2 -trace 1
