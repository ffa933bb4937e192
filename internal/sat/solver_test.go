package sat

import (
	"testing"
)

func lit(n int) Lit {
	if n == 0 {
		panic("lit(0)")
	}
	if n < 0 {
		return PosLit(Var(-n - 1)).Not()
	}
	return PosLit(Var(n - 1))
}

// addVars allocates n variables on s.
func addVars(s *Solver, n int) {
	for i := 0; i < n; i++ {
		s.NewVar()
	}
}

func TestLitEncoding(t *testing.T) {
	v := Var(7)
	p, n := PosLit(v), PosLit(v).Not()
	if p.Var() != v || n.Var() != v {
		t.Fatalf("Var() mismatch: %v %v", p.Var(), n.Var())
	}
	if p.Neg() || !n.Neg() {
		t.Fatalf("Neg() mismatch")
	}
	if p.Not() != n || n.Not() != p {
		t.Fatalf("Not() mismatch")
	}
	if MkLit(v, false) != p || MkLit(v, true) != n {
		t.Fatalf("MkLit mismatch")
	}
	if p.XorSign(true) != n || p.XorSign(false) != p {
		t.Fatalf("XorSign mismatch")
	}
	if p.String() != "8" || n.String() != "-8" {
		t.Fatalf("String mismatch: %s %s", p, n)
	}
}

func TestEmptyFormulaIsSat(t *testing.T) {
	s := New()
	if st := s.Solve(); st != Sat {
		t.Fatalf("empty formula: got %v, want Sat", st)
	}
}

func TestSingleUnit(t *testing.T) {
	s := New()
	addVars(s, 1)
	if !s.AddClause(lit(1)) {
		t.Fatal("AddClause failed")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.ModelValue(lit(1)) {
		t.Fatal("model should set x1 true")
	}
	if s.ModelValue(lit(-1)) {
		t.Fatal("negated literal should be false")
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := New()
	addVars(s, 1)
	s.AddClause(lit(1))
	ok := s.AddClause(lit(-1))
	if ok {
		t.Fatal("expected AddClause to report contradiction")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
	// The contradiction is unconditional: it outlives the first Solve.
	if st := s.Solve(); st != Unsat {
		t.Fatalf("second Solve: got %v", st)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	addVars(s, 2)
	s.AddClause(lit(1), lit(-1))
	s.AddClause(lit(2))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	addVars(s, 2)
	s.AddClause(lit(1), lit(1), lit(1))
	s.AddClause(lit(-1), lit(2), lit(2))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.ModelValue(lit(1)) || !s.ModelValue(lit(2)) {
		t.Fatal("propagation through deduped clauses failed")
	}
}

func TestSimpleChain(t *testing.T) {
	// x1 ∧ (x1→x2) ∧ (x2→x3) ∧ ... ∧ (x9→x10)
	s := New()
	addVars(s, 10)
	s.AddClause(lit(1))
	for i := 1; i < 10; i++ {
		s.AddClause(lit(-i), lit(i+1))
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	for i := 1; i <= 10; i++ {
		if !s.ModelValue(lit(i)) {
			t.Fatalf("x%d should be true", i)
		}
	}
}

func TestUnsatTriangle(t *testing.T) {
	// (a∨b) ∧ (¬a∨b) ∧ (a∨¬b) ∧ (¬a∨¬b) is UNSAT.
	s := New()
	addVars(s, 2)
	s.AddClause(lit(1), lit(2))
	s.AddClause(lit(-1), lit(2))
	s.AddClause(lit(1), lit(-2))
	s.AddClause(lit(-1), lit(-2))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons, n holes — UNSAT.
func pigeonhole(s *Solver, pigeons, holes int) {
	varOf := func(p, h int) Lit { return lit(p*holes + h + 1) }
	addVars(s, pigeons*holes)
	for p := 0; p < pigeons; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = varOf(p, h)
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(varOf(p1, h).Not(), varOf(p2, h).Not())
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want Unsat", n+1, n, st)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := New()
	pigeonhole(s, 4, 4)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
}

func TestAssumptionsBasic(t *testing.T) {
	s := New()
	addVars(s, 3)
	s.AddClause(lit(-1), lit(2))
	s.AddClause(lit(-2), lit(3))
	if st := s.Solve(lit(1), lit(-3)); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	core := s.Core()
	if len(core) == 0 {
		t.Fatal("empty core")
	}
	for _, l := range core {
		if l != lit(1) && l != lit(-3) {
			t.Fatalf("core literal %v is not an assumption", l)
		}
	}
	// Without the conflicting assumption, SAT again (incremental reuse).
	if st := s.Solve(lit(1)); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if !s.ModelValue(lit(3)) {
		t.Fatal("x3 must be true under x1")
	}
}

func TestAssumptionContradictsItself(t *testing.T) {
	s := New()
	addVars(s, 1)
	if st := s.Solve(lit(1), lit(-1)); st != Unsat {
		t.Fatalf("got %v", st)
	}
	core := s.Core()
	if len(core) != 2 {
		t.Fatalf("core should contain both conflicting assumptions, got %v", core)
	}
}

func TestAssumptionAgainstLevelZeroUnit(t *testing.T) {
	s := New()
	addVars(s, 1)
	s.AddClause(lit(-1))
	if st := s.Solve(lit(1)); st != Unsat {
		t.Fatalf("got %v", st)
	}
	core := s.Core()
	if len(core) != 1 || core[0] != lit(1) {
		t.Fatalf("core should be {x1}, got %v", core)
	}
}

func TestCoreIsUnsatSubset(t *testing.T) {
	// x1..x5 selectors gate clauses; only s2,s4 jointly conflict.
	s := New()
	addVars(s, 7) // x1=a x2=b, selectors s1..s5 are vars 3..7
	a, b := lit(1), lit(2)
	sel := []Lit{lit(3), lit(4), lit(5), lit(6), lit(7)}
	s.AddClause(sel[0].Not(), a)          // s1 → a
	s.AddClause(sel[1].Not(), b)          // s2 → b
	s.AddClause(sel[2].Not(), a, b)       // s3 → a∨b
	s.AddClause(sel[3].Not(), b.Not())    // s4 → ¬b
	s.AddClause(sel[4].Not(), a, b.Not()) // s5 → a∨¬b
	st, core := s.SolveWithCore(sel)
	if st != Unsat {
		t.Fatalf("got %v", st)
	}
	// Core must include s2 and s4, name only assumptions, and re-verify
	// Unsat.
	if st2 := s.Solve(core...); st2 != Unsat {
		t.Fatalf("core does not reproduce Unsat: %v", core)
	}
	if !subsetOf(core, sel) || !subsetOf([]Lit{sel[1], sel[3]}, core) {
		t.Fatalf("core %v must contain {s2,s4} and lie within the selectors", core)
	}
}

func TestIncrementalGrowth(t *testing.T) {
	s := New()
	addVars(s, 2)
	s.AddClause(lit(1), lit(2))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	s.AddClause(lit(-1))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.ModelValue(lit(2)) {
		t.Fatal("x2 must hold after adding ¬x1")
	}
	s.AddClause(lit(-2))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestModelSatisfiesAllClauses(t *testing.T) {
	s := New()
	addVars(s, 8)
	clauses := [][]Lit{
		{lit(1), lit(2), lit(-3)},
		{lit(-1), lit(4)},
		{lit(3), lit(-4), lit(5)},
		{lit(-5), lit(6), lit(7)},
		{lit(-6), lit(-7)},
		{lit(8), lit(-2)},
		{lit(-8), lit(1), lit(3)},
	}
	for _, c := range clauses {
		s.AddClause(c...)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if s.ModelValue(l) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model violates clause %v", c)
		}
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to need > 1 conflict
	s.MaxConflicts = 1
	st := s.Solve()
	if st == Sat {
		t.Fatal("PHP(9,8) cannot be Sat")
	}
	// Either proved quickly or gave up; both acceptable, but must not hang.
	if st == Unsat {
		t.Log("solved within budget")
	}
}

// TestLongSearchCompacts: arena compaction runs only at restart boundaries
// every collectInterval conflicts, so a plain Solve must reach it on a
// refutation long enough for reduceDB to leave dead learnts behind.
func TestLongSearchCompacts(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(9,8): got %v, want Unsat", st)
	}
	if s.Stats.Compactions < 1 {
		t.Fatalf("Compactions = %d after %d conflicts, want >= 1",
			s.Stats.Compactions, s.Stats.Conflicts)
	}
}

func TestManySolveCallsReuseLearnts(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	for i := 0; i < 5; i++ {
		if st := s.Solve(); st != Unsat {
			t.Fatalf("iteration %d: got %v", i, st)
		}
	}
	if s.Stats.Solves != 5 {
		t.Fatalf("expected 5 solve calls, got %d", s.Stats.Solves)
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Status.String mismatch")
	}
}
