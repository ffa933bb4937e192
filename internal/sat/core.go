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
