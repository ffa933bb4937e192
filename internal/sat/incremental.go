package sat

// Incremental-use primitives: activation (selector) literals, retractable
// clause groups, and level-0 garbage collection. Together they let one
// Solver instance survive across many queries — the substrate behind the
// pooled abduction backend in internal/hhoudini.
//
// The protocol is the standard MiniSat one: a clause (¬s ∨ C) guarded by a
// selector s is active only in Solve calls that pass s as an assumption.
// When the clause group is dead for good, Release(s) pins s false, which
// permanently satisfies every guarded clause; Simplify() then physically
// deletes the satisfied clauses from the database and the watch lists.

// releaseGCThreshold is the number of released selectors after which
// Release triggers an automatic Simplify pass.
const releaseGCThreshold = 32

// NewSelector allocates a fresh activation (selector) variable and returns
// its positive literal. The saved phase of a fresh variable prefers false,
// so selectors that are not assumed in a given Solve call fall away without
// search effort, deactivating the clauses they guard.
func (s *Solver) NewSelector() Lit { return PosLit(s.NewVar()) }

// Release permanently retracts a selector: sel is fixed false at level 0,
// so every clause guarded by it (of the form ¬sel ∨ C, active under the
// assumption sel) is satisfied forever. After releaseGCThreshold releases
// the dead clauses are garbage-collected via Simplify. Must be called at
// decision level 0 (i.e. between Solve calls).
func (s *Solver) Release(sel Lit) {
	s.AddClause(sel.Not())
	s.Stats.Released++
	s.releasedSinceGC++
	if s.releasedSinceGC >= releaseGCThreshold {
		s.Simplify()
	}
}

// Simplify removes every clause satisfied at decision level 0 from the
// clause database and the watch lists — the clause-deletion half of
// selector release. It is safe to call between Solve calls; it is a no-op
// above level 0 or once the database is known Unsat.
func (s *Solver) Simplify() {
	if !s.ok || s.decisionLevel() != 0 {
		return
	}
	if s.propagate() != crUndef {
		s.ok = false
		return
	}
	s.releasedSinceGC = 0
	s.Stats.Simplifies++
	// Level-0 assignments are permanent and never re-examined by conflict
	// analysis, so their reason clauses can be dropped: clear the reasons
	// before deleting clauses that may currently be "locked".
	for _, l := range s.trail {
		s.reason[l.Var()] = crUndef
	}
	// Collect the satisfied clauses into the reusable scratch buffer first
	// (detaching while forEachClause walks the slab would be fine — deletion
	// only flips a header bit — but keeping mutation out of the walk keeps
	// the invariant simple), then detach and delete.
	s.scratchRefs = s.scratchRefs[:0]
	s.forEachClause(func(cr clauseRef) {
		for _, w := range s.clauseLits(cr) {
			if s.valueLit(Lit(w)) == lTrue {
				s.scratchRefs = append(s.scratchRefs, cr)
				return
			}
		}
	})
	for _, cr := range s.scratchRefs {
		s.detachClause(cr)
		s.markDeleted(cr)
	}
	// Compact the learnt index, then reclaim the slab if enough died.
	j := 0
	for _, cr := range s.learnts {
		if !s.isDeleted(cr) {
			s.learnts[j] = cr
			j++
		}
	}
	s.learnts = s.learnts[:j]
	s.maybeCollect()
}
