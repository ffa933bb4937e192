package hhoudini

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hhoudini/internal/faultinject"
)

// chaos_test.go is the learner half of the chaos tier (`make chaos`): every
// test arms faultinject points and asserts the engine *degrades* — never
// corrupts state, never deadlocks, never leaks goroutines. The solver half
// lives in internal/sat/interrupt_test.go; the cross-layer acceptance test
// on a real design lives in the root package (robustness_api_test.go).

// checkNoGoroutineLeak asserts the goroutine count returns to (near) the
// baseline captured before the test body ran. Retries absorb runtime
// bookkeeping goroutines that exit asynchronously.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosSolverUnknownFailsLearn: an abduction query is one unbounded
// solve, so a solver that gives up (sat.solve.unknown armed forever) fails
// the Learn with an error naming the query's target — promptly, without an
// invariant, and without leaving a worker behind.
func TestChaosSolverUnknownFailsLearn(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, universe, target := backtrackSystem(t)

	faultinject.Arm(faultinject.SolverUnknown, faultinject.Spec{Count: -1})
	defer faultinject.Reset()

	for _, workers := range []int{1, 4} {
		o := coldOptions()
		o.Workers = workers
		l := NewLearner(sys, minerOf(universe...), o)
		start := time.Now()
		inv, err := l.Learn([]Pred{target})
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("workers=%d: Learn took %v to fail", workers, d)
		}
		if err == nil || inv != nil {
			t.Fatalf("workers=%d: inv=%v err=%v, want an error and no invariant", workers, inv, err)
		}
		if !strings.Contains(err.Error(), target.String()) {
			t.Fatalf("workers=%d: err = %v, want it to name the target %s", workers, err, target)
		}
		if errors.Is(err, ErrBudgetExceeded) || errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want a solver failure, not a budget or cancel", workers, err)
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestChaosWorkerPanicContained: an injected worker panic must fail that
// Learn with a stack-carrying *PanicError while the process — and the next
// Learn — continues normally.
func TestChaosWorkerPanicContained(t *testing.T) {
	sys, universe, target := backtrackSystem(t)

	for _, workers := range []int{1, 4} {
		faultinject.Arm(faultinject.WorkerPanic, faultinject.Spec{Count: 1})
		o := coldOptions()
		o.Workers = workers
		l := NewLearner(sys, minerOf(universe...), o)
		inv, err := l.Learn([]Pred{target})
		faultinject.Reset()
		if inv != nil {
			t.Fatalf("workers=%d: panicked Learn returned an invariant", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.PredID == "" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError missing context: id=%q stack=%d bytes",
				workers, pe.PredID, len(pe.Stack))
		}

		// The process survives: a fresh learner on the same system succeeds.
		l2 := NewLearner(sys, minerOf(universe...), coldOptions())
		inv2, err := l2.Learn([]Pred{target})
		if err != nil || inv2 == nil {
			t.Fatalf("workers=%d: post-panic Learn: inv=%v err=%v", workers, inv2, err)
		}
	}
}

// TestChaosProofDBWriteFailure: with every atomic rewrite failing, learning
// still succeeds, the previous on-disk store stays byte-identical
// (degrade, never corrupt), and the write error is observable on the
// store handle rather than swallowed.
func TestChaosProofDBWriteFailure(t *testing.T) {
	dir := t.TempDir()

	// Seed the store with a clean run.
	o1 := warmOptions(NewVerifyCache())
	o1.CacheDir = dir
	learnOnce(t, o1)
	if err := CloseProofDBs(); err != nil {
		t.Fatalf("seed close: %v", err)
	}
	path := filepath.Join(dir, "proof.db")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("seed store unreadable: %v", err)
	}

	injected := fmt.Errorf("chaos: disk full")
	faultinject.Arm(faultinject.ProofDBWrite, faultinject.Spec{Count: -1, Err: injected})
	defer faultinject.Reset()

	o2 := warmOptions(NewVerifyCache())
	o2.CacheDir = dir
	sys, universe, target := backtrackSystem(t)
	l := NewLearner(sys, minerOf(universe...), o2)
	inv, err := l.Learn([]Pred{target})
	if err != nil || inv == nil {
		t.Fatalf("learning must not fail on store-write errors: inv=%v err=%v", inv, err)
	}
	if l.pdb == nil {
		t.Fatal("CacheDir learner has no bound proof store")
	}
	// The write-ahead journal keeps the run durable while snapshot rewrites
	// fail: Learn's shutdown Persist fsyncs the journal and succeeds, so no
	// flush error is recorded yet. The rewrite failure surfaces at Close,
	// whose final full flush is the first snapshot write of the run.
	if got := l.pdb.LastErr(); got != nil {
		t.Fatalf("journal-backed shutdown persist failed: %v", got)
	}
	if err := CloseProofDBs(); !errors.Is(err, injected) {
		t.Fatalf("Close must surface the failed final flush; got %v", err)
	}
	if got := l.pdb.LastErr(); !errors.Is(got, injected) {
		t.Fatalf("LastErr = %v, want the injected error", got)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("store unreadable after failed writes: %v", err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("failed atomic write corrupted the on-disk store")
	}

	// With the fault cleared, the store is still usable for a warm start.
	faultinject.Reset()
	o3 := warmOptions(NewVerifyCache())
	o3.CacheDir = dir
	l3, _ := learnOnce(t, o3)
	if err := CloseProofDBs(); err != nil {
		t.Fatalf("post-chaos close: %v", err)
	}
	c := o3.Cache.Counters()
	if c.DiskVerdictsLoaded == 0 {
		t.Fatal("post-chaos learner did not warm-start from the surviving store")
	}
	_ = l3
}

// TestChaosQueryDelayCancellation: with every abduction query stretched,
// a deadline mid-Learn must surface context.DeadlineExceeded and leave no
// goroutines behind.
func TestChaosQueryDelayCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, universe, target := backtrackSystem(t)

	faultinject.Arm(faultinject.QueryDelay, faultinject.Spec{Count: -1, Delay: 20 * time.Millisecond})
	defer faultinject.Reset()

	o := coldOptions()
	o.Workers = 4
	l := NewLearner(sys, minerOf(universe...), o)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	inv, err := l.LearnCtx(ctx, []Pred{target})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (inv=%v), want DeadlineExceeded", err, inv)
	}
	checkNoGoroutineLeak(t, before)
}
