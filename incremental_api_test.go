package hhoudini_test

// End-to-end tests of the abduction backend through the public facade. A
// query that misses the memo builds its own solver, so a query's answer and
// cost depend only on (target, candidates): the full VeloCT pipeline over
// the Appendix C execute stage verifies and audits at one and at three
// workers with one solver per query, the search counts of a cold SmallOoO
// verification are identical at one and at two workers, and a backtracking
// run repeats exactly at one worker.

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
		// Every query of a cold run builds its own solver.
		st := res.Stats.Snapshot()
		if st.SolverAllocs != st.Queries || st.PoolReuses != 0 {
			t.Fatalf("workers=%d: want one solver per query: allocs=%d reuses=%d queries=%d",
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

// coldSmallOoO runs one cold verification of S_ooo on SmallOoO with example
// seed 1 over a private cache; weak selects the weak example set
// (RunsPerInstr 1, no compositions), which makes the learner backtrack.
func coldSmallOoO(t *testing.T, workers int, weak bool) *hh.Result {
	t.Helper()
	return verifySmallOoO(t, workers, hh.NewVerifyCache(), "", weak)
}

// verifySmallOoO is coldSmallOoO over the given cache and, when cacheDir is
// not empty, the proof store in cacheDir.
func verifySmallOoO(t *testing.T, workers int, cache *hh.VerifyCache, cacheDir string, weak bool) *hh.Result {
	t.Helper()
	tgt, err := hh.NewOoO(hh.SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	opts := hh.DefaultAnalysisOptions()
	opts.Learner.Workers = workers
	opts.Learner.Cache = cache
	opts.Learner.CacheDir = cacheDir
	opts.Examples.Seed = 1
	if weak {
		opts.Examples.RunsPerInstr = 1
		opts.Examples.CompositionRuns = 0
	}
	a, err := hh.NewAnalysis(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify(oooSafe())
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant == nil {
		t.Fatalf("S_ooo must verify on SmallOoO (workers=%d weak=%v): %s", workers, weak, res.Reason)
	}
	return res
}

// TestColdVerifyCountsArePinned pins the search itself: the queries issued,
// solvers built, pool reuses (always 0), clauses encoded and CDCL conflicts
// of a cold SmallOoO verification repeat exactly, and are the same at one
// worker and at two — no query depends on which worker takes it — so a
// change that claims to leave the search alone, or to move one of these
// counts, has a gate noise cannot touch. To re-measure after a deliberate
// change to the search, run this test and copy the "got" line it prints on
// failure (they are the numbers `go run ./bench -workload cold-seq -seed 1
// -rounds 2 -trace 1` reports per round as hhoudini.queries /
// solver_allocs / encoded_clauses and sat.conflicts, there summed over the
// round's five operations).
func TestColdVerifyCountsArePinned(t *testing.T) {
	const (
		queries, allocs, reuses = 86, 86, 0
		encodedClauses          = 342401
		conflicts               = 11224
	)
	want := [5]int64{queries, allocs, reuses, encodedClauses, conflicts}
	for _, workers := range []int{1, 2} {
		st := coldSmallOoO(t, workers, false).Stats.Snapshot()
		got := [5]int64{st.Queries, st.SolverAllocs, st.PoolReuses, st.EncodedClauses, st.SolverConflicts}
		if got != want {
			t.Fatalf("workers=%d queries/allocs/reuses/encoded clauses/conflicts:\n got  %v\n want %v", workers, got, want)
		}
	}
}

// TestWeakExamplesRepeatAtOneWorker: under the weak example set the learner
// backtracks, and at one worker the whole search — tasks, backtracks,
// queries, encoded clauses, conflicts and the invariant itself — repeats
// exactly from run to run.
func TestWeakExamplesRepeatAtOneWorker(t *testing.T) {
	var first [5]int64
	var firstInv []string
	for run := 0; run < 3; run++ {
		res := coldSmallOoO(t, 1, true)
		st := res.Stats.Snapshot()
		got := [5]int64{st.Tasks, st.Backtracks, st.Queries, st.EncodedClauses, st.SolverConflicts}
		inv := predIDs(res.Invariant)
		if run == 0 {
			if st.Backtracks == 0 {
				t.Fatal("weak examples must make the learner backtrack")
			}
			first, firstInv = got, inv
			continue
		}
		if got != first {
			t.Fatalf("run %d tasks/backtracks/queries/encoded clauses/conflicts:\n got  %v\n first %v", run, got, first)
		}
		if !reflect.DeepEqual(inv, firstInv) {
			t.Fatalf("run %d learned a different invariant:\n got   %v\n first %v", run, inv, firstInv)
		}
	}
}

// TestWarmRepeatScenariosArePinned: a SmallOoO verification at one worker
// that follows another over the same memo — on one shared VerifyCache, and
// through CacheDir with a CloseProofDBs restart between the runs — learns
// exactly the invariant a cold run of its own configuration learns,
// whichever example sets the two runs use. Its solver and task counts are
// pinned. The weak set backtracks fewer tasks than cold, because the memo
// answers the smallest abduct it holds; that shorter path reaches one
// query whose candidates neither lie within a proven-Sat set nor contain a
// stored abduct, so weak→weak builds one solver.
func TestWarmRepeatScenariosArePinned(t *testing.T) {
	defer hh.CloseProofDBs()
	coldInv := map[bool][]string{} // by weak; filled by each first run, which is cold
	for _, sc := range []struct {
		name                  string
		firstWeak, secondWeak bool
		solvers, tasks        int64
	}{
		{"weak→weak", true, true, 1, 176},
		{"strong→weak", false, true, 0, 86},
		{"weak→strong", true, false, 0, 86},
	} {
		for _, disk := range []bool{false, true} {
			mode := "memory"
			cache, dir := hh.NewVerifyCache(), ""
			if disk {
				mode, dir = "disk", t.TempDir()
			}
			first := verifySmallOoO(t, 1, cache, dir, sc.firstWeak)
			if st := first.Stats.Snapshot(); st.SolverAllocs != st.Queries {
				t.Fatalf("%s/%s: first run is not cold: %d solvers for %d queries", sc.name, mode, st.SolverAllocs, st.Queries)
			}
			coldInv[sc.firstWeak] = predIDs(first.Invariant)
			if disk {
				if err := hh.CloseProofDBs(); err != nil {
					t.Fatal(err)
				}
				cache = hh.NewVerifyCache()
			}
			second := verifySmallOoO(t, 1, cache, dir, sc.secondWeak)
			st := second.Stats.Snapshot()
			if st.SolverAllocs != sc.solvers || st.Tasks != sc.tasks {
				t.Fatalf("%s/%s: second run built %d solvers over %d tasks; want %d over %d",
					sc.name, mode, st.SolverAllocs, st.Tasks, sc.solvers, sc.tasks)
			}
			if got, want := predIDs(second.Invariant), coldInv[sc.secondWeak]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: second run's invariant differs from a cold run's:\n got  %v\n cold %v", sc.name, mode, got, want)
			}
			if err := hh.CloseProofDBs(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
