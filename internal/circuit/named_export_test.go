package circuit

import (
	"testing"

	"hhoudini/internal/sat"
)

// portabilityCircuit builds a small two-register design used by the
// named-clause portability tests.
func portabilityCircuit(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder()
	in := b.Input("in", 4)
	x := b.Register("x", 4, 0)
	y := b.Register("y", 4, 0)
	b.SetNext("x", b.Add(x, in))
	b.SetNext("y", b.XorW(y, x))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNodeVarNamesStableAcrossEncodingOrder is the portability contract for
// state variables: the canonical name of a register bit's SAT variable must
// not depend on the order in which an encoder materialized cones, so a
// clause exported from one encoder names the same state bits everywhere.
func TestNodeVarNamesStableAcrossEncodingOrder(t *testing.T) {
	c := portabilityCircuit(t)

	encA := NewEncoder(c, sat.New())
	// A encodes x's cone first, then y's.
	if _, err := encA.RegNextLits("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := encA.RegNextLits("y"); err != nil {
		t.Fatal(err)
	}

	encB := NewEncoder(c, sat.New())
	// B encodes in the opposite order.
	if _, err := encB.RegNextLits("y"); err != nil {
		t.Fatal(err)
	}
	if _, err := encB.RegNextLits("x"); err != nil {
		t.Fatal(err)
	}

	for _, reg := range []string{"x", "y"} {
		la, err := encA.RegLits(reg)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := encB.RegLits(reg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range la {
			na, nb := encA.VarName(la[i].Var()), encB.VarName(lb[i].Var())
			if na == "" || na != nb {
				t.Fatalf("%s[%d]: name %q (A) vs %q (B)", reg, i, na, nb)
			}
		}
	}
}

// TestMemoScopedGateNamesStable checks the scoped half of the naming scheme:
// Tseitin gates allocated under the same Memo key get identical canonical
// names in both encoders even when the surrounding allocation order differs,
// because the scope sequence counter restarts per key.
func TestMemoScopedGateNamesStable(t *testing.T) {
	c := portabilityCircuit(t)

	build := func(e *Encoder) (sat.Lit, error) {
		xs, err := e.RegLits("x")
		if err != nil {
			return 0, err
		}
		return e.AndLits(xs...), nil
	}

	encA := NewEncoder(c, sat.New())
	la, err := encA.Memo("allx", func() (sat.Lit, error) { return build(encA) })
	if err != nil {
		t.Fatal(err)
	}

	encB := NewEncoder(c, sat.New())
	// Skew B's variable allocation before the memoized build: extra cones
	// shift raw variable indices, but scoped names must not move.
	if _, err := encB.RegNextLits("y"); err != nil {
		t.Fatal(err)
	}
	lb, err := encB.Memo("allx", func() (sat.Lit, error) { return build(encB) })
	if err != nil {
		t.Fatal(err)
	}

	na, nb := encA.VarName(la.Var()), encB.VarName(lb.Var())
	if na == "" || na != nb {
		t.Fatalf("memo gate names differ: %q (A) vs %q (B)", na, nb)
	}
	if la.Var() == lb.Var() && encA.S.NumVars() == encB.S.NumVars() {
		t.Log("note: allocation skew did not move raw indices; name check still meaningful")
	}
}

// TestImportNamedClauseSemantics replays a clause authored in one encoder
// into a second encoder over the same circuit and checks it constrains the
// second solver: a unit clause forcing x[0] false must make assuming x[0]
// true Unsat, while leaving the rest of the space satisfiable.
func TestImportNamedClauseSemantics(t *testing.T) {
	c := portabilityCircuit(t)

	encA := NewEncoder(c, sat.New())
	xa, err := encA.RegLits("x")
	if err != nil {
		t.Fatal(err)
	}
	name := encA.VarName(xa[0].Var())
	if name == "" {
		t.Fatal("register bit has no canonical name")
	}
	clause := []NamedLit{{Name: name, Neg: true}} // ¬x[0]

	encB := NewEncoder(c, sat.New())
	xb, err := encB.RegLits("x")
	if err != nil {
		t.Fatal(err)
	}
	clausesBefore := encB.Stats().Clauses
	if !encB.ImportNamedClause(clause) {
		t.Fatal("import of known name rejected")
	}
	if got := encB.Stats().Imported; got != 1 {
		t.Fatalf("Imported stat = %d, want 1", got)
	}
	if got := encB.Stats().Clauses; got != clausesBefore {
		t.Fatalf("imported clause charged to Clauses (%d -> %d); replay must not count as fresh encode work", clausesBefore, got)
	}
	if st := encB.S.Solve(xb[0]); st != sat.Unsat {
		t.Fatalf("assuming x[0] after importing ¬x[0]: %v, want Unsat", st)
	}
	if st := encB.S.Solve(xb[0].Not()); st != sat.Sat {
		t.Fatalf("assuming ¬x[0]: %v, want Sat", st)
	}
}

// TestImportNamedClauseUnknownName checks the retry contract: a clause
// naming a variable this encoder has not allocated is rejected wholesale,
// leaving solver and stats untouched.
func TestImportNamedClauseUnknownName(t *testing.T) {
	c := portabilityCircuit(t)
	enc := NewEncoder(c, sat.New())
	xs, err := enc.RegLits("x")
	if err != nil {
		t.Fatal(err)
	}
	known := enc.VarName(xs[0].Var())
	before := enc.S.NumClauses()

	if enc.ImportNamedClause([]NamedLit{{Name: known}, {Name: "n:999999"}}) {
		t.Fatal("clause with unknown name was accepted")
	}
	if got := enc.Stats().Imported; got != 0 {
		t.Fatalf("Imported stat = %d after rejected import, want 0", got)
	}
	if got := enc.S.NumClauses(); got != before {
		t.Fatalf("solver clause count moved %d -> %d on rejected import", before, got)
	}
}

// TestExportNamedLearntsDropsUnnamed checks that clauses published in
// named form (NameClause, called from the solver's mid-run export hook)
// never mention unnamed (selector or out-of-scope aux) variables: a clause
// touching one is dropped whole, and every literal of every published
// clause resolves through VarName.
func TestExportNamedLearntsDropsUnnamed(t *testing.T) {
	c := portabilityCircuit(t)
	s := sat.New()
	enc := NewEncoder(c, s)
	xn, err := enc.RegNextLits("x")
	if err != nil {
		t.Fatal(err)
	}
	sel := enc.NewSelector()
	if enc.NameClause([]sat.Lit{xn[0], sel.Not()}) != nil {
		t.Fatal("clause mentioning a selector was given a portable name")
	}

	var published [][]NamedLit
	s.SetExchangeHooks(func(lits []sat.Lit, lbd int) {
		if named := enc.NameClause(lits); named != nil {
			published = append(published, named)
		}
	}, nil)
	// Force some search with selector-guarded contradictory assumptions so
	// learnt clauses (and selector-tainted ones) exist.
	enc.AssertLitWhen(sel, xn[0])
	enc.AssertLitWhen(sel, xn[0].Not())
	if st := s.Solve(sel); st != sat.Unsat {
		t.Fatalf("contradiction under selector: %v, want Unsat", st)
	}
	for _, cl := range published {
		if len(cl) == 0 {
			t.Fatal("empty published clause")
		}
		for _, nl := range cl {
			if nl.Name == "" {
				t.Fatalf("published clause %v carries an unnamed literal", cl)
			}
		}
	}
}
