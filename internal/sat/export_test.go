package sat

import "testing"

// php is shorthand for AddPigeonhole (benchwork.go) in this package's
// tests.
func php(s *Solver, pigeons, holes int) { AddPigeonhole(s, pigeons, holes) }

// captureExports installs an export hook (SetExchangeHooks) that copies
// every learnt clause the solver offers to the mid-run exchange.
func captureExports(s *Solver) *[][]Lit {
	var out [][]Lit
	s.SetExchangeHooks(func(lits []Lit, lbd int) {
		out = append(out, append([]Lit(nil), lits...))
	}, nil)
	return &out
}

// TestExportLearntsRootUnitsHonorLocality checks the unit-fact half of the
// export path: a learnt unit is offered to the hook unless its variable was
// marked local.
func TestExportLearntsRootUnitsHonorLocality(t *testing.T) {
	s := New()
	a, b, x := s.NewVar(), s.NewVar(), s.NewVar()
	s.MarkLocal(b)
	if !s.IsLocal(b) || s.IsLocal(a) {
		t.Fatal("locality flags wrong")
	}
	// Assuming either a or b is contradictory, so each Solve learns the
	// unit ¬a / ¬b.
	for _, v := range []Var{a, b} {
		s.AddClause(NegLit(v), PosLit(x))
		s.AddClause(NegLit(v), NegLit(x))
	}
	got := captureExports(s)
	for _, v := range []Var{a, b} {
		if st := s.Solve(PosLit(v)); st != Unsat {
			t.Fatalf("assuming var %d: %v, want Unsat", v, st)
		}
	}
	var sawA, sawB bool
	for _, cl := range *got {
		if len(cl) != 1 {
			t.Fatalf("expected only units, got %v", cl)
		}
		switch cl[0].Var() {
		case a:
			sawA = true
		case b:
			sawB = true
		}
	}
	if !sawA {
		t.Fatal("non-local learnt unit was not exported")
	}
	if sawB {
		t.Fatal("local learnt unit leaked into the export")
	}
}

// TestExportImportLearntsRoundTrip solves an UNSAT pigeonhole instance with
// the export hook attached and imports what it published into a second
// solver over the same base clauses: the import must be accepted, counted,
// and leave the second solver's verdict unchanged.
func TestExportImportLearntsRoundTrip(t *testing.T) {
	const pigeons, holes = 6, 5
	src := New()
	php(src, pigeons, holes)
	got := captureExports(src)
	if st := src.Solve(); st != Unsat {
		t.Fatalf("PHP(%d,%d) = %v, want Unsat", pigeons, holes, st)
	}
	exported := *got
	if len(exported) == 0 {
		t.Fatal("pigeonhole search must learn exportable clauses")
	}
	if src.Stats.SharedOut != int64(len(exported)) {
		t.Fatalf("SharedOut stat = %d, want %d", src.Stats.SharedOut, len(exported))
	}
	for _, cl := range exported {
		if len(cl) == 0 {
			t.Fatal("empty clause exported")
		}
	}

	dst := New()
	php(dst, pigeons, holes)
	for _, cl := range exported {
		dst.ImportClause(cl...)
	}
	if dst.Stats.Imported != int64(len(exported)) {
		t.Fatalf("Imported stat = %d, want %d", dst.Stats.Imported, len(exported))
	}
	if st := dst.Solve(); st != Unsat {
		t.Fatalf("after import: %v, want Unsat", st)
	}
	// The imported clauses must prune search: the importer's conflict count
	// must not exceed the cold solver's.
	if dst.Stats.Conflicts > src.Stats.Conflicts {
		t.Fatalf("import did not help: dst conflicts %d > src %d",
			dst.Stats.Conflicts, src.Stats.Conflicts)
	}
}

// TestExportLearntsExcludesSelectorClauses checks that clauses whose
// derivation pinned a selector are never exported: selectors are
// solver-local, so any clause mentioning one is meaningless elsewhere.
func TestExportLearntsExcludesSelectorClauses(t *testing.T) {
	s := New()
	x := s.NewVar()
	sel := s.NewSelector()
	// sel → x and sel → ¬x: assuming sel is contradictory.
	s.AddClause(sel.Not(), PosLit(x))
	s.AddClause(sel.Not(), NegLit(x))
	got := captureExports(s)
	if st := s.Solve(sel); st != Unsat {
		t.Fatalf("got %v, want Unsat under sel", st)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat without sel", st)
	}
	if s.Stats.Conflicts == 0 {
		t.Fatal("no conflict under sel; nothing was learnt and the check is vacuous")
	}
	for _, cl := range *got {
		for _, l := range cl {
			if l.Var() == sel.Var() {
				t.Fatalf("selector leaked into exported clause %v", cl)
			}
		}
	}
}

// TestExportLearntsLengthCap checks shareMaxLen filtering.
func TestExportLearntsLengthCap(t *testing.T) {
	s := New()
	php(s, 6, 5)
	got := captureExports(s)
	if st := s.Solve(); st != Unsat {
		t.Fatal("want Unsat")
	}
	if len(*got) == 0 {
		t.Fatal("nothing exported; the check is vacuous")
	}
	for _, cl := range *got {
		if len(cl) > shareMaxLen {
			t.Fatalf("clause %v exceeds shareMaxLen", cl)
		}
	}
}
