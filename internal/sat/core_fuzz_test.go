package sat

import (
	"math/rand"
	"testing"
)

// FuzzMinimizeCoreCritical is the differential fuzz target for
// MinimizeCore's critical hook. The fuzzer picks a seed and a shape; the
// test derives a small random CNF whose clauses each sit behind their own
// selector, takes the solver's core over all selectors, and minimises it
// twice on identically built solvers: once without the hook, and once with
// a hook that returns a random subset of the members of cur that brute-force
// enumeration shows are necessary (cur without them is satisfiable). The
// hook is only ever called after a Sat probe of cur without the dropped
// literal, whose model must still be readable and satisfy that probe. Both
// results must be Unsat, locally minimal subsets of the core, and the run
// with the hook must take no more probes than the run without it.
func FuzzMinimizeCoreCritical(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(0x2b))
	f.Add(int64(31337), uint8(0xc5))
	f.Add(int64(-4), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		nVars := 3 + int(shape)%6
		nSels := 4 + int(shape>>3)%12
		guarded := map[Lit][]Lit{}
		build := func() (*Solver, []Lit) {
			rng := rand.New(rand.NewSource(seed))
			s := New()
			addVars(s, nVars)
			var sels []Lit
			for _, c := range randomClauses(rng, nVars, nSels, 3) {
				sel := s.NewSelector()
				s.AddClause(append([]Lit{sel.Not()}, c...)...)
				guarded[sel] = c
				sels = append(sels, sel)
			}
			return s, sels
		}
		satisfiable := func(active []Lit) bool {
			cs := make([][]Lit, 0, len(active))
			for _, a := range active {
				cs = append(cs, guarded[a])
			}
			ok, _ := bruteForce(nVars, cs)
			return ok
		}
		without := func(ls []Lit, drop Lit) []Lit {
			out := make([]Lit, 0, len(ls))
			for _, l := range ls {
				if l != drop {
					out = append(out, l)
				}
			}
			return out
		}
		minimise := func(critical func([]Lit, Lit) []Lit) (core, min []Lit, probes int64) {
			s, sels := build()
			st, core := s.SolveWithCore(sels)
			if st != Unsat {
				return nil, nil, 0
			}
			before := s.Stats.Solves
			if critical != nil {
				inner := critical
				critical = func(cur []Lit, l Lit) []Lit {
					for _, a := range without(cur, l) {
						held := false
						for _, x := range guarded[a] {
							held = held || s.ModelValue(x)
						}
						if !held {
							t.Fatalf("hook called without the model of cur \\ {%v}: clause of %v fails", l, a)
						}
					}
					return inner(cur, l)
				}
			}
			min = s.MinimizeCore(core, critical)
			return core, min, s.Stats.Solves - before
		}

		core, plain, plainProbes := minimise(nil)
		if core == nil {
			return // satisfiable under every selector: nothing to minimise
		}
		hookRng := rand.New(rand.NewSource(seed ^ 0x5eed))
		claims := 0
		_, hooked, hookedProbes := minimise(func(cur []Lit, l Lit) []Lit {
			var out []Lit
			for _, k := range cur {
				if k != l && hookRng.Intn(2) == 0 && satisfiable(without(cur, k)) {
					out = append(out, k)
				}
			}
			claims += len(out)
			return out
		})
		for name, min := range map[string][]Lit{"plain": plain, "hooked": hooked} {
			if !subsetOf(min, core) {
				t.Fatalf("%s: minimised core %v is not a subset of %v", name, min, core)
			}
			if satisfiable(min) {
				t.Fatalf("%s: minimised core %v is satisfiable", name, min)
			}
			for _, k := range min {
				if !satisfiable(without(min, k)) {
					t.Fatalf("%s: minimised core %v is not locally minimal: %v can go", name, min, k)
				}
			}
		}
		if hookedProbes > plainProbes {
			t.Fatalf("%d probes with the hook (%d claims), %d without, for core %v", hookedProbes, claims, plainProbes, core)
		}
	})
}
