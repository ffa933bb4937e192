package sat

import (
	"math/rand"
	"testing"
)

// The inprocessing pass only fires on its own every inprocessInterval
// conflicts, which the small workloads in this package never reach; these
// tests call s.inprocess() directly at level 0.

// TestInprocessBackwardSubsumption: (a ∨ b) subsumes (a ∨ b ∨ c); the
// superset clause must be deleted and the verdicts preserved.
func TestInprocessBackwardSubsumption(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(PosLit(a), PosLit(b), PosLit(c))
	s.inprocess()
	if s.Stats.Subsumed < 1 {
		t.Fatalf("Subsumed = %d, want >= 1", s.Stats.Subsumed)
	}
	// ¬a ∧ ¬b must still be excluded through the surviving clause.
	if st := s.Solve(NegLit(a), NegLit(b)); st != Unsat {
		t.Fatalf("after subsumption: got %v under ¬a∧¬b, want Unsat", st)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("after subsumption: got %v, want Sat", st)
	}
}

// TestInprocessSelfSubsumingResolution: resolving (a ∨ b) with
// (¬a ∨ b ∨ c) on a gives (b ∨ c), which subsumes the latter — it must be
// strengthened to (b ∨ c), i.e. ¬b ∧ ¬c becomes Unsat without touching a.
func TestInprocessSelfSubsumingResolution(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(b), PosLit(c))
	s.inprocess()
	if s.Stats.Strengthened < 1 {
		t.Fatalf("Strengthened = %d, want >= 1", s.Stats.Strengthened)
	}
	if st := s.Solve(NegLit(b), NegLit(c)); st != Unsat {
		t.Fatalf("after SSR: got %v under ¬b∧¬c, want Unsat", st)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("after SSR: got %v, want Sat", st)
	}
}

// TestInprocessStrengthenToUnit: SSR that collapses a binary clause to a
// unit must land the unit on the level-0 trail.
func TestInprocessStrengthenToUnit(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(b))
	s.inprocess()
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if !s.ModelValue(PosLit(b)) {
		t.Fatal("b must be forced true by the strengthened unit")
	}
	if st := s.Solve(NegLit(b)); st != Unsat {
		t.Fatalf("got %v under ¬b, want Unsat", st)
	}
}

// TestInprocessPreservesModels is the differential check: random CNFs,
// one solver inprocessed mid-stream and one left alone, must agree with
// brute-force enumeration on the verdict.
func TestInprocessPreservesModels(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for iter := 0; iter < 200; iter++ {
		nVars := 3 + rng.Intn(7)
		clauses := randomClauses(rng, nVars, 2+rng.Intn(3*nVars), 4)
		s := New()
		addVars(s, nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		s.inprocess()
		// A second pass over the already-reduced database must also be a
		// no-op semantically (and exercises stale occurrence lists).
		s.inprocess()
		want, _ := bruteForce(nVars, clauses)
		st := s.Solve()
		if want && st != Sat {
			t.Fatalf("iter %d: brute force Sat, inprocessed solver %v (clauses %v)", iter, st, clauses)
		}
		if !want && st != Unsat {
			t.Fatalf("iter %d: brute force Unsat, inprocessed solver %v (clauses %v)", iter, st, clauses)
		}
		if st == Sat {
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.ModelValue(l) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model violates original clause %v", iter, c)
				}
			}
		}
	}
}

// TestInprocessAfterSolveWithLearnts runs a pigeonhole refutation to build
// a learnt database, inprocesses it, and re-solves: the verdict must stay
// Unsat and learnt-vs-problem deletion rules must not lose constraints.
func TestInprocessAfterSolveWithLearnts(t *testing.T) {
	s := New()
	AddPigeonhole(s, 6, 5)
	if st := s.Solve(); st != Unsat {
		t.Fatal("PHP(6,5) must be Unsat")
	}
	s.inprocess()
	if s.Okay() {
		// The level-0 database may or may not already be contradictory;
		// either way a fresh Solve must still refute.
		if st := s.Solve(); st != Unsat {
			t.Fatalf("after inprocess: got %v, want Unsat", st)
		}
	}
}
