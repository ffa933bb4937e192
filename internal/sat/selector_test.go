package sat

import "testing"

// TestSelectorGuardedClause checks the MiniSat activation protocol: a
// guarded clause constrains the formula only in Solve calls that assume
// its selector.
func TestSelectorGuardedClause(t *testing.T) {
	s := New()
	addVars(s, 2)
	sel := s.NewSelector()
	// sel → (x1), sel → (¬x2)
	s.AddClause(sel.Not(), lit(1))
	s.AddClause(sel.Not(), lit(-2))
	// Unguarded query: both polarities of x1 are free.
	if st := s.Solve(lit(-1)); st != Sat {
		t.Fatalf("unguarded: got %v, want Sat", st)
	}
	// Guarded query: sel forces x1 true, so assuming ¬x1 is Unsat.
	if st := s.Solve(sel, lit(-1)); st != Unsat {
		t.Fatalf("guarded: got %v, want Unsat", st)
	}
	// The guard stays retractable: dropping the assumption re-frees x1.
	if st := s.Solve(lit(-1)); st != Sat {
		t.Fatalf("after guarded query: got %v, want Sat", st)
	}
}
