package sat

import (
	"math/rand"
	"testing"
)

// FuzzArenaVsBruteForce is the differential fuzz target for the flat-arena
// solver: the fuzzer picks a seed and interleaving shape, the test derives
// a random incremental session from it (clause batches, assumption solves,
// a forced mid-stream learnt-DB reduction and arena compaction) and
// cross-checks every verdict against brute-force enumeration. Mutating the
// two integers explores different clause densities and solve cadences.
func FuzzArenaVsBruteForce(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(31337), uint8(7))
	f.Add(int64(-9), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + int(shape)%8
		rounds := 2 + int(shape>>3)%4
		s := New()
		addVars(s, nVars)
		var acc [][]Lit
		for r := 0; r < rounds; r++ {
			for _, c := range randomClauses(rng, nVars, 1+rng.Intn(2*nVars), 3) {
				acc = append(acc, c)
				s.AddClause(c...)
			}
			if r == rounds/2 {
				// Exercise the arena rewrite mid-session: Solve leaves the
				// solver at level 0, where compaction runs in production.
				s.reduceDB()
				s.garbageCollect()
			}
			var assum []Lit
			if rng.Intn(2) == 1 {
				assum = append(assum, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1))
			}
			all := append([][]Lit{}, acc...)
			for _, a := range assum {
				all = append(all, []Lit{a})
			}
			want, _ := bruteForce(nVars, all)
			st := s.Solve(assum...)
			if want && st != Sat {
				t.Fatalf("round %d: brute force Sat, solver %v (assum %v, clauses %v)", r, st, assum, acc)
			}
			if !want && st != Unsat {
				t.Fatalf("round %d: brute force Unsat, solver %v (assum %v, clauses %v)", r, st, assum, acc)
			}
			if st == Sat {
				for _, c := range acc {
					ok := false
					for _, l := range c {
						if s.ModelValue(l) {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("round %d: model violates %v", r, c)
					}
				}
			}
		}
	})
}
