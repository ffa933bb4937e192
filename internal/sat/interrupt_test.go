package sat

import (
	"sync/atomic"
	"testing"
	"time"

	"hhoudini/internal/faultinject"
)

// hardFormula builds a formula that takes real search effort: pigeonhole
// PHP(n+1 → n), unsatisfiable and exponentially hard for resolution-based
// CDCL, so an unbounded Solve on a largish instance runs long enough to be
// interrupted from another goroutine.
func hardFormula(s *Solver, pigeons, holes int) {
	vars := make([][]Var, pigeons)
	for p := 0; p < pigeons; p++ {
		vars[p] = make([]Var, holes)
		for h := 0; h < holes; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	// Every pigeon sits somewhere.
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(vars[p][h])
		}
		s.AddClause(lits...)
	}
	// No two pigeons share a hole.
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(PosLit(vars[p1][h]).Not(), PosLit(vars[p2][h]).Not())
			}
		}
	}
}

func TestInterruptStopsSolve(t *testing.T) {
	var stop atomic.Bool
	s := New()
	hardFormula(s, 12, 11)
	s.ShareStop(&stop)
	done := make(chan Status, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		stop.Store(true)
	}()
	start := time.Now()
	go func() { done <- s.Solve() }()
	select {
	case st := <-done:
		// Sat/Unsat is allowed if the solver won the race, but a verdict
		// long after the interrupt means the check never fired.
		if st == Unknown {
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("interrupted Solve took %v", d)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Solve did not return after the stop flag was set")
	}
	if !s.stopped() {
		t.Fatal("stopped() must report the sticky flag")
	}
}

func TestInterruptIsSticky(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	var stop atomic.Bool
	stop.Store(true)
	s.ShareStop(&stop)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("pre-interrupted Solve = %v, want Unknown", st)
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("interrupt must be sticky: Solve = %v, want Unknown", st)
	}
}

// TestInterruptSharedStopFlag: solvers that share one stop flag are cancelled by a
// single store to it. Set mid-search, it makes every sharing Solve return
// Unknown; set before Solve, it stops a solver that shares it only later
// without a single decision or conflict — no gap between building a solver
// and cancelling it. A solver with no flag is untouched.
func TestInterruptSharedStopFlag(t *testing.T) {
	var stop atomic.Bool
	done := make(chan Status, 2)
	solvers := make([]*Solver, 2)
	for i := range solvers {
		s := New()
		hardFormula(s, 12, 11)
		s.ShareStop(&stop)
		solvers[i] = s
		go func() { done <- s.Solve() }()
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	for range solvers {
		select {
		case st := <-done:
			if st != Unknown {
				t.Fatalf("shared-flag Solve on PHP(12,11) = %v, want Unknown", st)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Solve did not return after the shared flag was set")
		}
	}
	for i, s := range solvers {
		if !s.stopped() {
			t.Fatalf("solver %d: stopped() = false with the shared flag set", i)
		}
	}

	late := New()
	a, b := late.NewVar(), late.NewVar()
	late.AddClause(PosLit(a), PosLit(b))
	late.ShareStop(&stop)
	if st := late.Solve(); st != Unknown {
		t.Fatalf("Solve under an already-set shared flag = %v, want Unknown", st)
	}
	if late.Stats.Decisions != 0 || late.Stats.Conflicts != 0 {
		t.Fatalf("pre-stopped Solve searched: %d decisions, %d conflicts",
			late.Stats.Decisions, late.Stats.Conflicts)
	}

	unshared := New()
	c := unshared.NewVar()
	unshared.AddClause(PosLit(c))
	if st := unshared.Solve(); st != Sat || unshared.stopped() {
		t.Fatalf("solver with no stop flag: Solve = %v, stopped = %v; want Sat, false", st, unshared.stopped())
	}
}

// TestChaosForcedUnknown pins the faultinject hook in Solve: armed, the
// solver gives up without touching the search state; disarmed, the same
// instance solves normally.
func TestChaosForcedUnknown(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	faultinject.Arm(faultinject.SolverUnknown, faultinject.Spec{Count: 2})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("forced Solve = %v, want Unknown", st)
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("second forced Solve = %v, want Unknown", st)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("exhausted injection: Solve = %v, want Sat", st)
	}
	if got := faultinject.Fired(faultinject.SolverUnknown); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}
