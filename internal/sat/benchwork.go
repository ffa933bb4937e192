package sat

import (
	"fmt"
	"math/rand"
)

// Shared definitions of the solver workload family. Two harnesses run
// these: the in-package BenchmarkSat* benchmarks (bench_test.go) and the
// repository benchmark's sat.probe_ns.* probes (bench/probes.go). Keeping
// the constructors here — not in a test file — is what lets both run
// byte-identical workloads without copy-drift.

// BenchWorkload is one named solver workload. New builds the instance and
// returns a closure running exactly one measured operation; the closure
// reports an error on an unexpected verdict.
type BenchWorkload struct {
	Name string
	New  func() func() error
}

// BenchWorkloads returns the workload family.
func BenchWorkloads() []BenchWorkload {
	return []BenchWorkload{
		{
			// 200 disjoint implication chains of length 100, solved under
			// all heads as assumptions: 20k propagations, zero conflicts.
			Name: "propagate_chains",
			New: func() func() error {
				const k, l = 200, 100
				s := New()
				heads := make([]Lit, k)
				for i := 0; i < k; i++ {
					prev := PosLit(s.NewVar())
					heads[i] = prev
					for j := 0; j < l; j++ {
						next := PosLit(s.NewVar())
						s.AddClause(prev.Not(), next)
						prev = next
					}
				}
				return func() error {
					if st := s.Solve(heads...); st != Sat {
						return fmt.Errorf("chain workload: %v, want Sat", st)
					}
					return nil
				}
			},
		},
		{
			// One assumption fanning out through 60 layers of width 60 via
			// long clauses padded with false distractors: the watcher scan,
			// not binary implication walking, dominates.
			Name: "propagate_wide",
			New: func() func() error {
				const layers, width = 60, 60
				s := New()
				root := PosLit(s.NewVar())
				prev := []Lit{root}
				for i := 0; i < layers; i++ {
					cur := make([]Lit, width)
					for j := range cur {
						cur[j] = PosLit(s.NewVar())
						cl := []Lit{prev[j%len(prev)].Not(), cur[j]}
						for d := 0; d < 6; d++ {
							cl = append(cl, prev[(j+d+1)%len(prev)].Not())
						}
						s.AddClause(cl...)
					}
					prev = cur
				}
				return func() error {
					if st := s.Solve(root); st != Sat {
						return fmt.Errorf("wide workload: %v, want Sat", st)
					}
					return nil
				}
			},
		},
		{
			// Fresh PHP(7,6) refutation per op: conflict analysis, learnt
			// allocation and DB reduction on top of propagation.
			Name: "solve_php",
			New: func() func() error {
				return func() error {
					s := New()
					AddPigeonhole(s, 7, 6)
					if st := s.Solve(); st != Unsat {
						return fmt.Errorf("PHP(7,6): %v, want Unsat", st)
					}
					return nil
				}
			},
		},
		{
			// Fresh random 3SAT (120 vars, 500 clauses, fixed seed) per op.
			Name: "solve_random3sat",
			New: func() func() error {
				const nVars, nClauses = 120, 500
				rng := rand.New(rand.NewSource(7))
				clauses := make([][]Lit, nClauses)
				for i := range clauses {
					n := 1 + rng.Intn(3)
					c := make([]Lit, n)
					for j := range c {
						c[j] = MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)
					}
					clauses[i] = c
				}
				return func() error {
					s := New()
					for s.NumVars() < nVars {
						s.NewVar()
					}
					for _, c := range clauses {
						s.AddClause(c...)
					}
					if st := s.Solve(); st == Unknown {
						return fmt.Errorf("random 3SAT: Unknown")
					}
					return nil
				}
			},
		},
	}
}

// AddPigeonhole adds a PHP(pigeons, holes) instance: Unsat whenever
// pigeons > holes, and small instances already force real CDCL learning.
func AddPigeonhole(s *Solver, pigeons, holes int) {
	lit := func(p, h int) Lit {
		v := Var(p*holes + h)
		for s.NumVars() <= int(v) {
			s.NewVar()
		}
		return PosLit(v)
	}
	for p := 0; p < pigeons; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = lit(p, h)
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(lit(p1, h).Not(), lit(p2, h).Not())
			}
		}
	}
}
