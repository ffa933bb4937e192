package hhoudini

import (
	"sort"
	"sync/atomic"
	"testing"

	"hhoudini/internal/sat"
)

// Abduct is one solved obligation of a finished Learn: a target and the
// abduct its query returned, in the minimised core's order.
type Abduct struct {
	Target Pred
	Preds  []Pred
}

// Abducts returns every solved obligation's abduct, sorted by target ID.
func Abducts(l *Learner) []Abduct {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Abduct
	for _, e := range l.entries {
		if e.solved {
			out = append(out, Abduct{Target: e.pred, Preds: e.abduct})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target.ID() < out[j].Target.ID() })
	return out
}

// ProbeClaims makes every literal the learner's model rotation claims
// critical be probed as well: the solver is asked for cur without it, and
// anything but Sat fails t. It returns the running count of claims.
// Probing changes the solver's learnt clauses, so the cores a learner
// minimises under ProbeClaims may differ from the ones it would return
// otherwise; each is still checked.
func ProbeClaims(t testing.TB, l *Learner) *atomic.Int64 {
	var claims atomic.Int64
	l.wrapCritical = func(s *sat.Solver, critical func([]sat.Lit, sat.Lit) []sat.Lit) func([]sat.Lit, sat.Lit) []sat.Lit {
		return func(cur []sat.Lit, dropped sat.Lit) []sat.Lit {
			out := critical(cur, dropped)
			for _, k := range out {
				trial := make([]sat.Lit, 0, len(cur))
				for _, x := range cur {
					if x != k {
						trial = append(trial, x)
					}
				}
				if st := s.Solve(trial...); st != sat.Sat {
					t.Errorf("rotation claimed %v critical in %v, but the probe without it is %v", k, cur, st)
				}
			}
			claims.Add(int64(len(out)))
			return out
		}
	}
	return &claims
}
