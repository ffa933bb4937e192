package hhoudini

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hhoudini/internal/faultinject"
)

// cancel_test.go: the cancellation half of the chaos tier. Every test here
// runs under `make chaos` (race-enabled) and asserts the LearnCtx contract:
// prompt return with ctx.Err(), workers drained, no goroutine leaks, every
// solver dropped, the answers memoized so far flushed and reloadable.

// TestCancelBeforeLearn: a context cancelled before LearnCtx starts must
// short-circuit without running any task.
func TestCancelBeforeLearn(t *testing.T) {
	sys, universe, target := backtrackSystem(t)
	l := NewLearner(sys, minerOf(universe...), coldOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inv, err := l.LearnCtx(ctx, []Pred{target})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (inv=%v), want context.Canceled", err, inv)
	}
	if got := l.Stats().Tasks; got != 0 {
		t.Fatalf("pre-cancelled LearnCtx executed %d tasks", got)
	}
}

// TestCancelMidLearnRepeated is the race sweep: many iterations at
// Workers=4, each cancelled at a different point of the run, with injected
// query latency widening the window. Every outcome must be either a clean
// result (cancel arrived after the drain) or exactly context.Canceled, and
// the goroutine count must return to baseline at the end.
func TestCancelMidLearnRepeated(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, universe, target := backtrackSystem(t)

	faultinject.Arm(faultinject.QueryDelay, faultinject.Spec{Count: -1, Delay: time.Millisecond})
	defer faultinject.Reset()

	const iters = 25
	var cancelled, completed int
	for i := 0; i < iters; i++ {
		o := coldOptions()
		o.Workers = 4
		l := NewLearner(sys, minerOf(universe...), o)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(i%10)*time.Millisecond/2, cancel)
		inv, err := l.LearnCtx(ctx, []Pred{target})
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			completed++
			if inv == nil {
				t.Fatalf("iter %d: uncancelled run found no invariant", i)
			}
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("iter %d: err = %v, want nil or context.Canceled", i, err)
		}
	}
	t.Logf("iterations: %d cancelled, %d completed", cancelled, completed)
	checkNoGoroutineLeak(t, before)
}

// TestCancelFlushesProofStore: partial progress of a cancelled run reaches
// the on-disk store (finishPersist runs on every exit path), and the store
// warm-starts the next — completing — run.
func TestCancelFlushesProofStore(t *testing.T) {
	dir := t.TempDir()
	sys, universe, target := backtrackSystem(t)

	// Let a few queries land before cancelling so the flush has content.
	faultinject.Arm(faultinject.QueryDelay, faultinject.Spec{Skip: 2, Count: -1, Delay: 10 * time.Millisecond})

	o := warmOptions(NewVerifyCache())
	o.CacheDir = dir
	l := NewLearner(sys, minerOf(universe...), o)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err := l.LearnCtx(ctx, []Pred{target})
	faultinject.Reset()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want nil or DeadlineExceeded", err)
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatalf("close after cancel: %v", err)
	}

	// Fresh process image (new cache, re-opened store): must complete.
	o2 := warmOptions(NewVerifyCache())
	o2.CacheDir = dir
	l2 := NewLearner(sys, minerOf(universe...), o2)
	inv, err := l2.Learn([]Pred{target})
	if err != nil || inv == nil {
		t.Fatalf("post-cancel reload Learn: inv=%v err=%v", inv, err)
	}
	if l2.pdb == nil {
		t.Fatal("second learner did not bind the proof store")
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	checkNoGoroutineLeak(t, runtime.NumGoroutine())
}

// TestCancelReturnsPromptly: once cancel fires, LearnCtx must return within
// a bound far below the work remaining (the solver interrupt-check interval
// plus scheduling noise), even with many queued tasks.
func TestCancelReturnsPromptly(t *testing.T) {
	sys, universe, target := backtrackSystem(t)
	o := coldOptions()
	o.Workers = 2
	l := NewLearner(sys, minerOf(universe...), o)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := l.LearnCtx(ctx, []Pred{target})
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("LearnCtx took %v to honour cancellation", elapsed)
	}
}
