package hhoudini_test

// End-to-end test of the pooled abduction backend through the public
// facade, asserting only what holds under every schedule and core count:
// the full VeloCT pipeline over the Appendix C execute stage verifies and
// audits at one and at three workers, the pool's bookkeeping balances, and
// the sequential run is reproducible. (The pooled-vs-fresh-solver encode
// work comparison is single-worker and lives in
// internal/hhoudini/incremental_test.go.)

import (
	"reflect"
	"testing"

	hh "hhoudini"
)

// execStageVerify runs one verification of safe on a fresh ExecStage
// analysis over a private cache, so every query is solved by this run.
func execStageVerify(t *testing.T, safe []string, workers int) (*hh.Analysis, *hh.Result) {
	t.Helper()
	tgt, err := hh.NewExecStage(hh.ExecStageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := hh.DefaultAnalysisOptions()
	opts.Learner.Workers = workers
	opts.Learner.Cache = hh.NewVerifyCache()
	a, err := hh.NewAnalysis(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify(safe)
	if err != nil {
		t.Fatal(err)
	}
	return a, res
}

func predIDs(inv *hh.Invariant) []string {
	ids := make([]string, len(inv.Preds))
	for i, p := range inv.Preds {
		ids[i] = p.ID()
	}
	return ids
}

func TestIncrementalBackendOnExecStage(t *testing.T) {
	for _, workers := range []int{1, 3} {
		a, res := execStageVerify(t, []string{"add"}, workers)
		if res.Invariant == nil {
			t.Fatalf("workers=%d: {add} must verify: %s", workers, res.Reason)
		}
		if err := a.Audit(res); err != nil {
			t.Fatalf("workers=%d: audit: %v", workers, err)
		}
		// Every query of a cold run either builds its cone's solver or finds
		// it warm in the worker's pool.
		st := res.Stats.Snapshot()
		if st.SolverAllocs+st.PoolReuses != st.Queries {
			t.Fatalf("workers=%d: pool accounting broken: allocs=%d reuses=%d queries=%d",
				workers, st.SolverAllocs, st.PoolReuses, st.Queries)
		}
	}

	// One worker is deterministic: the same invariant, predicate for
	// predicate, run to run.
	_, first := execStageVerify(t, []string{"add"}, 1)
	_, second := execStageVerify(t, []string{"add"}, 1)
	if got, want := predIDs(second.Invariant), predIDs(first.Invariant); !reflect.DeepEqual(got, want) {
		t.Fatalf("sequential runs learned different invariants:\n first  %v\n second %v", want, got)
	}
}

// TestIncrementalBackendRejectsUnsafeSet checks the None verdict at both
// worker counts: the zero-skip multiplier must fail.
func TestIncrementalBackendRejectsUnsafeSet(t *testing.T) {
	for _, workers := range []int{1, 3} {
		_, res := execStageVerify(t, []string{"add", "mul"}, workers)
		if res.Invariant != nil {
			t.Fatalf("workers=%d: mul must not verify on the zero-skip stage", workers)
		}
	}
}

// TestColdVerifyCountsArePinned pins the search itself: with one worker the
// queries issued, solvers built, pool reuses, clauses encoded and CDCL
// conflicts of a cold SmallOoO verification repeat exactly, so a change
// that claims to leave the search alone — or to move one of these counts —
// has a gate noise cannot touch. To re-measure after a deliberate change to
// the search, run this test and copy the "got" line it prints on failure
// (the same numbers `go run ./bench -workload cold-seq -seed 1 -rounds 2
// -trace 1` reports per round as hhoudini.queries / solver_allocs /
// encoded_clauses and sat.conflicts, there summed over the round's five
// operations).
func TestColdVerifyCountsArePinned(t *testing.T) {
	const (
		queries, allocs, reuses = 86, 79, 7
		encodedClauses          = 309321
		conflicts               = 18802
	)
	tgt, err := hh.NewOoO(hh.SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	opts := hh.DefaultAnalysisOptions()
	opts.Learner.Workers = 1
	opts.Learner.Cache = hh.NewVerifyCache()
	opts.Examples.Seed = 1
	a, err := hh.NewAnalysis(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify(oooSafe())
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant == nil {
		t.Fatalf("S_ooo must verify on SmallOoO: %s", res.Reason)
	}
	st := res.Stats.Snapshot()
	got := [5]int64{st.Queries, st.SolverAllocs, st.PoolReuses, st.EncodedClauses, st.SolverConflicts}
	want := [5]int64{queries, allocs, reuses, encodedClauses, conflicts}
	if got != want {
		t.Fatalf("queries/allocs/reuses/encoded clauses/conflicts:\n got  %v\n want %v", got, want)
	}
}
