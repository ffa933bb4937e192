package hhoudini

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hhoudini/internal/circuit"
	"hhoudini/internal/faultinject"
)

// share_test.go: correctness of mid-run clause exchange. Sharing must be
// invisible in verdicts (imported clauses are learnt — logically implied —
// so any difference is a soundness bug), robust to tiny rings that force
// overwrite laps, and cancellation-clean while drains are in flight.

// shareOptions returns a multi-worker configuration with the exchange on
// and a deliberately tiny ring so producers lap consumers.
func shareOptions(on bool) Options {
	o := testOptions(4)
	o.ShareClauses = on
	o.ShareRingSize = 4
	return o
}

// TestQuickShareClausesAgreesOnRandomSystems cross-checks sharing-on
// against sharing-off on the random corpus: same verdict, and every found
// invariant passes the semantic audit.
func TestQuickShareClausesAgreesOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for iter := 0; iter < 25; iter++ {
		sys, universe := randomSystem(t, rng)
		target := universe[rng.Intn(len(universe))].(regEq)
		init := circuit.InitSnapshot(sys.Circuit)
		if ok, _ := target.Eval(sys.Circuit, init); !ok {
			continue
		}
		var verdicts []bool
		for _, on := range []bool{false, true} {
			l := NewLearner(sys, minerOf(universe...), shareOptions(on))
			inv, err := l.Learn([]Pred{target})
			if err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, inv != nil)
			if inv != nil {
				if err := Audit(sys, inv); err != nil {
					t.Fatalf("iter %d share=%v: %v", iter, on, err)
				}
			}
			st := l.Stats()
			if st.ShareExported < 0 || st.ShareImported < 0 {
				t.Fatalf("iter %d share=%v: negative share counters %+v", iter, on, st)
			}
			if !on && (st.ShareExported != 0 || st.ShareImported != 0) {
				t.Fatalf("iter %d: sharing off but counters moved: %+v", iter, st)
			}
		}
		if verdicts[0] != verdicts[1] {
			t.Fatalf("iter %d: sharing changed the verdict (off=%v on=%v)", iter, verdicts[0], verdicts[1])
		}
	}
}

// TestShareClausesSingleWorkerNoExchange: sharing requested at Workers=1
// must not build rings or move counters (there is no sibling to share
// with) and must still solve.
func TestShareClausesSingleWorkerNoExchange(t *testing.T) {
	sys, universe, target := backtrackSystem(t)
	o := shareOptions(true)
	o.Workers = 1
	l := NewLearner(sys, minerOf(universe...), o)
	inv, err := l.Learn([]Pred{target})
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil {
		t.Fatal("backtrack system must have an invariant")
	}
	if st := l.Stats(); st.ShareExported != 0 || st.ShareImported != 0 {
		t.Fatalf("single worker moved share counters: %+v", st)
	}
}

// TestCancelMidDrainSharing sweeps cancellation points across multi-worker
// runs with the exchange on and injected latency widening the windows: a
// cancel that lands while a worker is draining sibling rings must surface
// as exactly ctx.Err() (context.Canceled), never a partial result and
// never a hang, and all goroutines must drain.
func TestCancelMidDrainSharing(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, universe, target := backtrackSystem(t)

	faultinject.Arm(faultinject.QueryDelay, faultinject.Spec{Count: -1, Delay: time.Millisecond})
	defer faultinject.Reset()

	const iters = 20
	var cancelled, completed int
	for i := 0; i < iters; i++ {
		l := NewLearner(sys, minerOf(universe...), shareOptions(true))
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(i%8)*time.Millisecond/2, cancel)
		inv, err := l.LearnCtx(ctx, []Pred{target})
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			completed++
			if inv == nil {
				t.Fatalf("iter %d: uncancelled run found no invariant", i)
			}
		case err == context.Canceled:
			// Exactly ctx.Err(): the sentinel itself, not a wrapped variant.
			cancelled++
		default:
			t.Fatalf("iter %d: err = %v, want nil or context.Canceled", i, err)
		}
	}
	t.Logf("iterations: %d cancelled, %d completed", cancelled, completed)
	checkNoGoroutineLeak(t, before)
}
