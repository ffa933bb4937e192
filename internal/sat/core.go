package sat

// SolveWithCore solves under the given assumptions and, when Unsat, returns
// a copy of the failing core.
func (s *Solver) SolveWithCore(assumptions []Lit) (Status, []Lit) {
	st := s.Solve(assumptions...)
	if st != Unsat {
		return st, nil
	}
	return st, append([]Lit(nil), s.core...)
}

// MinimizeCore shrinks an UNSAT core to a locally minimal one by
// deletion-based minimization: each literal is tentatively dropped and the
// remainder re-solved; literals whose removal keeps the formula Unsat are
// discarded. The result mirrors cvc5's minimal-unsat-cores option used by
// the paper's abduction oracle (§3.2.3): no single literal can be removed
// while staying Unsat, though the core is not guaranteed globally minimum.
//
// Literals are dropped front to back in the order given. When a probe is
// Unsat with a smaller core of its own, that core replaces the current one
// and the scan restarts from its front, so from then on the order is the
// solver's core order, not the caller's. A literal whose removal was Sat is
// necessary in every subset of the current core (each such subset without
// it is satisfiable too), so it is remembered and never probed again: with
// no Unknown probe, minimization costs at most one Solve per input literal.
// An Unknown probe keeps its literal without proving it necessary, so the
// literal is probed again after a refinement.
//
// critical, when not nil, proves literals necessary without a probe (model
// rotation): it is called right after a probe of cur \ {l} returned Sat,
// while ModelValue still reads that probe's model, and every literal it
// returns is treated as a literal whose removal was Sat and is never
// probed. A claim only ever keeps a literal, and cur still shrinks only on
// Unsat probes, so a wrong claim can cost minimality but never soundness:
// the result is an Unsat subset of the input core either way, and locally
// minimal when every claim is right. Callers without a model to rotate
// pass nil.
//
// The input core must be an Unsat core for the solver's current clause
// database. The solver's clause database is reused incrementally, so learnt
// clauses from earlier calls accelerate later ones.
func (s *Solver) MinimizeCore(core []Lit, critical func(cur []Lit, l Lit) []Lit) []Lit {
	cur := append([]Lit(nil), core...)
	var needed, trial []Lit
	for i := 0; i < len(cur); {
		if containsLit(needed, cur[i]) {
			i++
			continue
		}
		trial = append(append(trial[:0], cur[:i]...), cur[i+1:]...)
		st := s.Solve(trial...)
		if st == Unsat {
			// The dropped literal is unnecessary. Prefer the (possibly much
			// smaller) core reported by the solver for the trial set.
			if next := s.core; len(next) > 0 && len(next) <= len(trial) && subsetOf(next, trial) {
				cur = append(cur[:0], next...)
				i = 0
				continue
			}
			// Stay at index i: a new literal shifted into this slot.
			cur = append(cur[:i], cur[i+1:]...)
			continue
		}
		if st == Sat {
			needed = append(needed, cur[i])
			if critical != nil {
				needed = append(needed, critical(cur, cur[i])...)
			}
		}
		i++
	}
	return cur
}

// containsLit reports whether l occurs in ls. Cores are short, so a scan
// beats building a set.
func containsLit(ls []Lit, l Lit) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

func subsetOf(sub, super []Lit) bool {
	for _, l := range sub {
		if !containsLit(super, l) {
			return false
		}
	}
	return true
}
