package hhoudini

import (
	"sync/atomic"
)

// LearnRecursive is a direct transliteration of Algorithm 1: a sequential
// depth-first recursion with memoization, a global P_fail set and partial
// backtracking. It computes the same result as the worklist-based Learn
// (the tests cross-check them); Learn additionally parallelizes the inner
// loop as §3.2.4 describes. A Learner instance must be used for a single
// Learn or LearnRecursive call, not both.
func (l *Learner) LearnRecursive(targets []Pred) (*Invariant, error) {
	for _, t := range targets {
		ok, err := l.holdsAtInit(t)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
	}
	inProgress := make(map[string]bool)
	// The recursion is sequential, so one pooled-solver set serves every
	// abduction query; cones shared between predicates are encoded once.
	pool := newEncoderPool(l.sys, l.stats)
	defer pool.retire()

	var solve func(p Pred) (bool, error)
	solve = func(p Pred) (bool, error) {
		id := p.ID()
		if l.failed[id] {
			return false, nil
		}
		// Memoized early return (line 3), provided no abduct member has
		// failed since (soln ∩ P_fail = ∅).
		if e, ok := l.entries[id]; ok && (e.solved || inProgress[id]) {
			clean := true
			for _, m := range e.abduct {
				if l.failed[m.ID()] {
					clean = false
					break
				}
			}
			if clean {
				return true, nil
			}
			e.solved = false
			e.abduct = nil
			atomic.AddInt64(&l.stats.Backtracks, 1)
		}
		e := l.getOrCreateLocked(p)
		inProgress[id] = true
		defer delete(inProgress, id)

		for { // while not valid-solution (line 7)
			atomic.AddInt64(&l.stats.Tasks, 1)
			slice, err := l.slice.Slice(p)
			if err != nil {
				return false, err
			}
			cands, err := l.mine.Mine(p, slice)
			if err != nil {
				return false, err
			}
			live := make([]Pred, 0, len(cands))
			for _, c := range cands { // P_V \ P_fail (line 11)
				if !l.failed[c.ID()] {
					live = append(live, c)
				}
			}
			res, err := l.runAbduct(p, live, pool)
			if err != nil {
				return false, err
			}
			if !res.ok { // line 14-16
				l.failed[id] = true
				return false, nil
			}
			e.abduct = res.preds // memoize pending solution (line 13)
			valid := true
			for _, m := range res.preds { // line 18-26
				ok, err := solve(m)
				if err != nil {
					return false, err
				}
				if !ok {
					valid = false
					l.failed[m.ID()] = true
					break
				}
			}
			if valid {
				e.solved = true
				return true, nil
			}
			atomic.AddInt64(&l.stats.Backtracks, 1)
		}
	}

	for _, t := range targets {
		ok, err := solve(t)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
	}

	// Cycles may have ratified solutions against pending entries that
	// later failed; iterate to a clean fixpoint before assembling.
	for {
		dirty := false
		for id, e := range l.entries {
			if !e.solved || l.failed[id] {
				continue
			}
			for _, m := range e.abduct {
				if l.failed[m.ID()] {
					e.solved = false
					e.abduct = nil
					atomic.AddInt64(&l.stats.Backtracks, 1)
					ok, err := solve(e.pred)
					if err != nil {
						return nil, err
					}
					if !ok && inClosureOfTargets(l, targets, id) {
						return nil, nil
					}
					dirty = true
					break
				}
			}
		}
		if !dirty {
			break
		}
	}
	for _, t := range targets {
		if l.failed[t.ID()] {
			return nil, nil
		}
	}
	return l.assembleLocked(targets)
}

// inClosureOfTargets reports whether id is reachable from the targets via
// currently memoized abducts.
func inClosureOfTargets(l *Learner, targets []Pred, id string) bool {
	seen := make(map[string]bool)
	var stack []string
	for _, t := range targets {
		stack = append(stack, t.ID())
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		if cur == id {
			return true
		}
		if e := l.entries[cur]; e != nil {
			for _, m := range e.abduct {
				stack = append(stack, m.ID())
			}
		}
	}
	return false
}
