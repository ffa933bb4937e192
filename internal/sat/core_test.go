package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

// andTail builds a query shaped like an abduction query. nCrit selectors
// each force one input of an AND chain whose output is asserted false, so
// the query is Unsat exactly when all of them are assumed: they are the one
// minimal core. nShadow more selectors each guard a copy of one critical
// selector's clause that only acts when that selector is assumed as well,
// so no shadow is ever needed, yet propagation may take the copy as the
// reason, which puts the shadow into the solver's cores and makes
// minimization refine. The rest stands in for the rest of a cone, which
// every model must assign: nFree unconstrained inputs and nTail random AND
// gates (Tseitin-encoded), half over the free inputs alone, with random
// 3-clauses that a hidden assignment satisfies, half over all inputs. So a
// Sat probe costs decisions and the odd conflict, as a real one does, and
// the query stays satisfiable without any one critical selector. The
// selectors come back in a seeded shuffled order; the instance is a
// function of the arguments, so two calls build solvers in the same state.
func andTail(seed int64, nCrit, nShadow, nFree, nTail int) (*Solver, []Lit) {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	and := func(a, b Lit) Lit {
		g := PosLit(s.NewVar())
		s.AddClause(g.Not(), a)
		s.AddClause(g.Not(), b)
		s.AddClause(g, a.Not(), b.Not())
		return g
	}
	crit := make([]Lit, nCrit)
	inputs := make([]Lit, nCrit)
	var out Lit
	for i := range crit {
		crit[i] = s.NewSelector()
		inputs[i] = PosLit(s.NewVar())
		if i == 0 {
			out = inputs[i]
		} else {
			out = and(out, inputs[i])
		}
	}
	s.AddClause(out.Not())
	sels := append([]Lit(nil), crit...)
	// Shadow clauses go in first so they head the watch lists.
	for i := 0; i < nShadow; i++ {
		a := rng.Intn(nCrit)
		sh := s.NewSelector()
		s.AddClause(sh.Not(), crit[a].Not(), inputs[a])
		sels = append(sels, sh)
	}
	for i := range crit {
		s.AddClause(crit[i].Not(), inputs[i])
	}
	// The free region: unconstrained inputs, gates over them, and random
	// 3-clauses over its signals that a hidden assignment satisfies. It is
	// satisfiable whatever the critical inputs are, yet completing a model
	// over it takes decisions and the odd conflict.
	hidden := make([]bool, s.NumVars()+nFree+nTail)
	holds := func(l Lit) bool { return hidden[l.Var()] != l.Neg() }
	var free []Lit
	for i := 0; i < nFree; i++ {
		x := PosLit(s.NewVar())
		hidden[x.Var()] = rng.Intn(2) == 1
		free = append(free, x)
	}
	pick := func(ls []Lit) Lit { return ls[rng.Intn(len(ls))].XorSign(rng.Intn(2) == 1) }
	for i := 0; i < nTail/2; i++ {
		a, b := pick(free), pick(free)
		g := and(a, b)
		hidden[g.Var()] = holds(a) && holds(b)
		free = append(free, g)
	}
	for i := 0; i < nTail*3/10; i++ {
		c := []Lit{pick(free), pick(free), pick(free)}
		for !holds(c[0]) && !holds(c[1]) && !holds(c[2]) {
			c[rng.Intn(3)] = pick(free)
		}
		s.AddClause(c...)
	}
	// The rest of the tail mixes the critical inputs in.
	signals := append(append([]Lit(nil), inputs...), free...)
	for i := nTail / 2; i < nTail; i++ {
		signals = append(signals, and(pick(signals), pick(signals)))
	}
	rng.Shuffle(len(sels), func(i, j int) { sels[i], sels[j] = sels[j], sels[i] })
	return s, sels
}

// TestMinimizeCoreMatchesOracle pins MinimizeCore's contract against the
// loop it replaced (minimizeCoreOracle): the same core, literal for
// literal, for at most one Solve per input literal. Both shapes minimise
// the solver's own core of an andTail query: with every literal critical,
// and with shadow selectors in the core, so probes are Sat and Unsat in
// turn and the scan restarts after refinements — each restart is where the
// oracle re-proves literals already shown necessary.
func TestMinimizeCoreMatchesOracle(t *testing.T) {
	cases := []struct {
		name                         string
		nCrit, nShadow, nFree, nTail int
		refining                     bool
	}{
		{name: "all-critical", nCrit: 20, nFree: 30, nTail: 300},
		{name: "refinements", nCrit: 12, nShadow: 12, nFree: 30, nTail: 300, refining: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var saved int64
			for seed := int64(1); seed <= 10; seed++ {
				run := func(minimize func(*Solver, []Lit) []Lit) ([]Lit, []Lit, int64) {
					s, sels := andTail(seed, tc.nCrit, tc.nShadow, tc.nFree, tc.nTail)
					st, core := s.SolveWithCore(sels)
					if st != Unsat {
						t.Fatalf("seed %d: query is %v, want Unsat", seed, st)
					}
					before := s.Stats.Solves
					got := minimize(s, core)
					return core, got, s.Stats.Solves - before
				}
				core, got, solves := run(func(s *Solver, core []Lit) []Lit { return s.MinimizeCore(core, nil) })
				_, want, oracleSolves := run(minimizeCoreOracle)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: core %v\n got  %v\n want %v (oracle)", seed, core, got, want)
				}
				if solves > int64(len(core)) {
					t.Fatalf("seed %d: %d solves for a %d-literal core", seed, solves, len(core))
				}
				if len(got) != tc.nCrit {
					t.Fatalf("seed %d: minimized to %d literals, want the %d critical ones", seed, len(got), tc.nCrit)
				}
				saved += oracleSolves - solves
			}
			if tc.refining && saved == 0 {
				t.Fatal("no refinement restarted the scan: the oracle spent no extra probe")
			}
		})
	}
}

// TestMinimizeCoreProbesEachLiteralOnce checks the rest of the contract on
// queries with many minimal cores: random 3-clauses, each behind its own
// selector, at a density where most such sets are Unsat. The result must be
// an Unsat, locally minimal subset of the input core, reached in at most one
// Solve per input literal. It is not compared with the oracle: with several
// minimal cores to refine towards, the core the solver reports for a probe
// depends on the learnt clauses and saved phases the probes before it left,
// and the oracle runs Sat probes that MinimizeCore skips.
func TestMinimizeCoreProbesEachLiteralOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for iter := 0; iter < 100; iter++ {
		nVars := 15 + rng.Intn(20)
		s := New()
		addVars(s, nVars)
		sels := make([]Lit, 4*nVars+rng.Intn(nVars))
		for i := range sels {
			sels[i] = s.NewSelector()
			c := []Lit{sels[i].Not()}
			for j := 0; j < 3; j++ {
				c = append(c, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1))
			}
			s.AddClause(c...)
		}
		st, core := s.SolveWithCore(sels)
		if st != Unsat || len(core) == 0 {
			continue
		}
		checked++
		before := s.Stats.Solves
		min := s.MinimizeCore(core, nil)
		if solves := s.Stats.Solves - before; solves > int64(len(core)) {
			t.Fatalf("iter %d: %d solves for a %d-literal core", iter, solves, len(core))
		}
		if !subsetOf(min, core) {
			t.Fatalf("iter %d: minimized core %v not a subset of %v", iter, min, core)
		}
		if st := s.Solve(min...); st != Unsat {
			t.Fatalf("iter %d: minimized core %v is %v", iter, min, st)
		}
		for i := range min {
			trial := append(append([]Lit{}, min[:i]...), min[i+1:]...)
			if s.Solve(trial...) != Sat {
				t.Fatalf("iter %d: core %v not locally minimal (drop %v)", iter, min, min[i])
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d of 100 queries were Unsat", checked)
	}
}
