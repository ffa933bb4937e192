package hhoudini

import (
	"sync/atomic"

	"hhoudini/internal/circuit"
	"hhoudini/internal/sat"
)

// defaultShareRingSize is the per-worker ring capacity when
// Options.ShareRingSize is 0. Each entry is one low-LBD learnt clause in
// canonical named form; the ring overwrites oldest, so the size bounds
// memory and staleness, never throughput.
const defaultShareRingSize = 256

// clauseExchange is the intra-Learn clause-sharing fabric
// (Options.ShareClauses): one lock-free sat.ShareRing per worker. A
// worker's solver publishes its hottest learnt clauses (low LBD, short)
// into the worker's own ring from inside the CDCL conflict loop, and
// drains every sibling ring at its restart boundaries — so a lemma derived
// by one worker prunes its siblings' searches while their Learn tasks are
// still running.
//
// Clauses travel in canonical named form (circuit.NamedLit): names denote
// the same boolean function in every encoder over the same circuit, which
// makes a drained clause sound to add to any sibling solver regardless of
// variable numbering. Clauses touching unnamed (solver-local) variables
// are never published.
type clauseExchange struct {
	rings []*sat.ShareRing[[]circuit.NamedLit]
	stats *Stats
}

// newClauseExchange builds the fabric for the given worker count.
func newClauseExchange(workers, ringSize int, stats *Stats) *clauseExchange {
	if ringSize <= 0 {
		ringSize = defaultShareRingSize
	}
	x := &clauseExchange{rings: make([]*sat.ShareRing[[]circuit.NamedLit], workers), stats: stats}
	for i := range x.rings {
		x.rings[i] = sat.NewShareRing[[]circuit.NamedLit](ringSize)
	}
	return x
}

// install wires enc's solver into the exchange as worker w's producer and a
// consumer of every sibling ring. The single-producer invariant of
// ShareRing holds because a worker goroutine runs one solver at a time:
// every solver the worker owns publishes into the same ring, serially.
//
// Consumer cursors start at zero, so the first drain replays the rings'
// entire live window into the solver — deliberate: a freshly constructed
// solver wants the current pool of hot lemmas. Re-imported duplicates are
// sound and short-lived (learnt-DB reduction removes them).
//
// The drain callback runs at a restart boundary with the solver at level 0
// and polls the solver's interrupt flag between clauses, so a cancelled
// LearnCtx stops the drain within one clause (the solver then returns
// Unknown and the worker surfaces ctx.Err(), per the PR 5 protocol).
func (x *clauseExchange) install(w int, enc *circuit.Encoder) {
	s := enc.S
	cursors := make([]sat.RingCursor, len(x.rings))
	export := func(lits []sat.Lit, lbd int) {
		named := enc.NameClause(lits)
		if named == nil {
			return
		}
		x.rings[w].Publish(named)
		atomic.AddInt64(&x.stats.ShareExported, 1)
	}
	drain := func() {
		for i := range x.rings {
			if i == w {
				continue
			}
			x.rings[i].Drain(&cursors[i], func(cl []circuit.NamedLit) bool {
				if s.Interrupted() {
					return false
				}
				if enc.ImportNamedClause(cl) {
					atomic.AddInt64(&x.stats.ShareImported, 1)
				}
				return true
			})
		}
	}
	s.SetExchangeHooks(export, drain)
}
