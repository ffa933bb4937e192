package sat

import (
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
				s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h]))
			}
		}
	}
}

func TestInterruptStopsSolve(t *testing.T) {
	s := New()
	hardFormula(s, 12, 11)
	done := make(chan Status, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Interrupt()
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
		t.Fatal("Solve did not return after Interrupt")
	}
	if !s.Interrupted() {
		t.Fatal("Interrupted() must report the sticky flag")
	}
}

func TestInterruptIsSticky(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.Interrupt()
	if st := s.Solve(); st != Unknown {
		t.Fatalf("pre-interrupted Solve = %v, want Unknown", st)
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("interrupt must be sticky: Solve = %v, want Unknown", st)
	}
}

func TestSetConflictBudgetIsRelative(t *testing.T) {
	s := New()
	hardFormula(s, 7, 6)
	s.SetConflictBudget(10)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("10-conflict budget on PHP(7,6) = %v, want Unknown", st)
	}
	spent := s.Stats.Conflicts
	if spent == 0 {
		t.Fatal("no conflicts recorded")
	}
	// A fresh relative budget must grant new effort even though the
	// cumulative counter already exceeds the old absolute bound.
	s.SetConflictBudget(10)
	if s.MaxConflicts <= spent {
		t.Fatalf("budget not rebased: MaxConflicts=%d, spent=%d", s.MaxConflicts, spent)
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("second bounded attempt = %v, want Unknown", st)
	}
	s.SetConflictBudget(-1)
	if s.MaxConflicts != -1 {
		t.Fatalf("negative budget must mean unbounded, got %d", s.MaxConflicts)
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("unbounded PHP(7,6) = %v, want Unsat", st)
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
