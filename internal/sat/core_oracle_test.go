package sat

// minimizeCoreOracle is the reference deletion loop that MinimizeCore must
// agree with literal for literal: the same front-to-back deletion and the
// same refinement to the solver's core for the trial set, but without the
// memory of literals already shown necessary, so after each refinement it
// probes every literal again from the front.
func minimizeCoreOracle(s *Solver, core []Lit) []Lit {
	cur := append([]Lit(nil), core...)
	for i := 0; i < len(cur); {
		trial := make([]Lit, 0, len(cur)-1)
		trial = append(trial, cur[:i]...)
		trial = append(trial, cur[i+1:]...)
		st := s.Solve(trial...)
		if st == Unsat {
			next := append([]Lit(nil), s.core...)
			if len(next) > 0 && len(next) <= len(trial) && oracleSubset(next, trial) {
				cur = next
				i = 0
				continue
			}
			cur = trial
			continue
		}
		i++
	}
	return cur
}

func oracleSubset(sub, super []Lit) bool {
	set := make(map[Lit]bool, len(super))
	for _, l := range super {
		set[l] = true
	}
	for _, l := range sub {
		if !set[l] {
			return false
		}
	}
	return true
}
