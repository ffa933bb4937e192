package sat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// bruteForce decides satisfiability of a clause set over nVars variables by
// enumeration and returns (sat, someModel).
func bruteForce(nVars int, clauses [][]Lit) (bool, []bool) {
	if nVars > 20 {
		panic("bruteForce: too many variables")
	}
	assign := make([]bool, nVars)
	for m := 0; m < 1<<nVars; m++ {
		for v := 0; v < nVars; v++ {
			assign[v] = m&(1<<v) != 0
		}
		ok := true
		for _, c := range clauses {
			cs := false
			for _, l := range c {
				val := assign[l.Var()]
				if l.Neg() {
					val = !val
				}
				if val {
					cs = true
					break
				}
			}
			if !cs {
				ok = false
				break
			}
		}
		if ok {
			out := make([]bool, nVars)
			copy(out, assign)
			return true, out
		}
	}
	return false, nil
}

func randomClauses(rng *rand.Rand, nVars, nClauses, maxLen int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		n := 1 + rng.Intn(maxLen)
		c := make([]Lit, n)
		for j := range c {
			c[j] = MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)
		}
		clauses[i] = c
	}
	return clauses
}

// subsetOf reports whether every literal of sub occurs in super.
func subsetOf(sub, super []Lit) bool {
	for _, l := range sub {
		if !slices.Contains(super, l) {
			return false
		}
	}
	return true
}

// TestQuickAgainstBruteForce cross-checks the CDCL solver against exhaustive
// enumeration on random small formulas, checking both the verdict and that
// returned models actually satisfy the formula.
func TestQuickAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for iter := 0; iter < 400; iter++ {
		nVars := 2 + rng.Intn(9)
		nClauses := 1 + rng.Intn(4*nVars)
		clauses := randomClauses(rng, nVars, nClauses, 3)

		want, _ := bruteForce(nVars, clauses)
		s := New()
		addVars(s, nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		st := s.Solve()
		if want && st != Sat {
			t.Fatalf("iter %d: brute force Sat, solver %v (clauses %v)", iter, st, clauses)
		}
		if !want && st != Unsat {
			t.Fatalf("iter %d: brute force Unsat, solver %v (clauses %v)", iter, st, clauses)
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
					t.Fatalf("iter %d: model violates clause %v", iter, c)
				}
			}
		}
	}
}

// TestQuickAssumptionCores checks on random formulas that Unsat cores are
// subsets of the assumptions and that re-solving under just the core stays
// Unsat.
func TestQuickAssumptionCores(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for iter := 0; iter < 200; iter++ {
		nVars := 3 + rng.Intn(7)
		clauses := randomClauses(rng, nVars, 2+rng.Intn(3*nVars), 3)
		nAssum := 1 + rng.Intn(nVars)
		assumptions := make([]Lit, 0, nAssum)
		used := map[Var]bool{}
		for len(assumptions) < nAssum {
			v := Var(rng.Intn(nVars))
			if used[v] {
				break
			}
			used[v] = true
			assumptions = append(assumptions, MkLit(v, rng.Intn(2) == 1))
		}

		s := New()
		addVars(s, nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		// Brute force with assumptions as unit clauses.
		all := append([][]Lit{}, clauses...)
		for _, a := range assumptions {
			all = append(all, []Lit{a})
		}
		want, _ := bruteForce(nVars, all)

		st, core := s.SolveWithCore(assumptions)
		if want && st != Sat {
			t.Fatalf("iter %d: want Sat got %v", iter, st)
		}
		if !want && st != Unsat {
			t.Fatalf("iter %d: want Unsat got %v", iter, st)
		}
		if st != Unsat {
			continue
		}
		if !subsetOf(core, assumptions) {
			t.Fatalf("iter %d: core %v not a subset of assumptions %v", iter, core, assumptions)
		}
		if st2 := s.Solve(core...); st2 != Unsat {
			t.Fatalf("iter %d: core %v does not reproduce Unsat", iter, core)
		}
	}
}

// TestQuickXorChains builds parity constraints (hard for resolution in the
// worst case, easy at this size) and verifies against direct computation.
func TestQuickXorChains(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 50; iter++ {
		n := 3 + rng.Intn(6)
		parity := rng.Intn(2) == 1
		s := New()
		addVars(s, n)
		// Encode x1 ⊕ x2 ⊕ ... ⊕ xn = parity via chained XOR with aux vars.
		prev := lit(1)
		for i := 2; i <= n; i++ {
			aux := s.NewVar()
			a := PosLit(aux)
			xi := lit(i)
			// a = prev ⊕ xi
			s.AddClause(a.Not(), prev, xi)
			s.AddClause(a.Not(), prev.Not(), xi.Not())
			s.AddClause(a, prev.Not(), xi)
			s.AddClause(a, prev, xi.Not())
			prev = a
		}
		if parity {
			s.AddClause(prev)
		} else {
			s.AddClause(prev.Not())
		}
		if st := s.Solve(); st != Sat {
			t.Fatalf("parity constraint always satisfiable, got %v", st)
		}
		got := false
		for i := 1; i <= n; i++ {
			if s.ModelValue(lit(i)) {
				got = !got
			}
		}
		if got != parity {
			t.Fatalf("model parity %v, want %v", got, parity)
		}
	}
}

// TestQuickPropertyIdempotentSolve uses testing/quick to check that solving
// twice returns the same status and that adding a satisfied model as units
// keeps the formula satisfiable.
func TestQuickPropertyIdempotentSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(6)
		clauses := randomClauses(rng, nVars, 1+rng.Intn(2*nVars), 3)
		s := New()
		addVars(s, nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		st1 := s.Solve()
		st2 := s.Solve()
		if st1 != st2 {
			return false
		}
		if st1 == Sat {
			// Fix the model as assumptions; must stay Sat.
			as := make([]Lit, nVars)
			for v := 0; v < nVars; v++ {
				as[v] = MkLit(Var(v), !s.ModelValue(PosLit(Var(v))))
			}
			if s.Solve(as...) != Sat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// normalizeRef is the reference clause normaliser AddClause must agree
// with: sort.Slice the literals, and call the clause satisfied when a
// literal is true at level 0 or the clause holds a literal and its
// complement; otherwise keep each distinct literal not false at level 0,
// in sorted order.
func normalizeRef(s *Solver, lits []Lit) (out []Lit, satisfied bool) {
	ls := append([]Lit(nil), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	present := map[Lit]bool{}
	for _, l := range ls {
		present[l] = true
	}
	for _, l := range ls {
		if s.valueLit(l) == lTrue || present[l.Not()] {
			return nil, true
		}
	}
	for i, l := range ls {
		if s.valueLit(l) == lFalse || (i > 0 && ls[i-1] == l) {
			continue
		}
		out = append(out, l)
	}
	return out, false
}

// TestQuickAddClauseNormalisation feeds AddClause clauses of 0 to 40
// literals — over pools of variables small enough to give duplicates and
// tautologies, some of them fixed by level-0 units — and checks each
// against normalizeRef: the same return value, and the same clause in the
// arena (or unit on the trail, or nothing when satisfied).
func TestQuickAddClauseNormalisation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nVars = 64
		s := New()
		addVars(s, nVars)
		for i := rng.Intn(8); i > 0; i-- {
			if u := MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1); s.valueLit(u) == lUndef {
				s.AddClause(u)
			}
		}
		// Half the clauses are monotone, so not every long one is a
		// tautology.
		pool, mixed := 1+rng.Intn(nVars), rng.Intn(2) == 0
		lits := make([]Lit, rng.Intn(41))
		for i := range lits {
			lits[i] = MkLit(Var(rng.Intn(pool)), mixed && rng.Intn(4) == 0)
		}
		want, satisfied := normalizeRef(s, lits)
		arena, trail := len(s.arena), len(s.trail)
		got := s.AddClause(lits...)
		switch {
		case satisfied:
			return got && len(s.arena) == arena && len(s.trail) == trail
		case len(want) == 0:
			return !got && len(s.arena) == arena
		case len(want) == 1:
			return got && len(s.arena) == arena && len(s.trail) == trail+1 && s.trail[trail] == want[0]
		}
		if !got || len(s.trail) != trail {
			return false
		}
		body := s.clauseLits(clauseRef(arena))
		if len(body) != len(want) {
			return false
		}
		for i, l := range want {
			if Lit(body[i]) != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
