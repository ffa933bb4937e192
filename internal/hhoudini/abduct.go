package hhoudini

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"hhoudini/internal/faultinject"
	"hhoudini/internal/sat"
)

// Escalation-ladder tuning (Options.InitialSolverConflicts documents the
// user-facing semantics).
const (
	// defaultInitialConflicts is the first-attempt budget when
	// Options.InitialSolverConflicts is 0. Small on purpose: H-Houdini's
	// whole premise (§3.2.4) is that relative-induction queries are
	// individually cheap, so the common case resolves on the first rung and
	// the ladder only pays for the rare hard query.
	defaultInitialConflicts = 2048
	// escalationFactor multiplies the budget after each Unknown.
	escalationFactor = 4
	// escalationUnboundedAfter: with no user limit, once the next rung would
	// exceed this many conflicts the final attempt runs unbounded — matching
	// the pre-ladder behaviour of never giving up, just with bounded
	// intermediate probes.
	escalationUnboundedAfter = 1 << 21
)

// solveAbduction answers one abduction query under the budget-escalation
// ladder: bounded attempts starting at the configured initial conflict
// budget, escalating ×escalationFactor per sat.Unknown (Stats.QueryRetries)
// until the query resolves, the learner is cancelled (errLearnInterrupted),
// or the ladder tops out at Options.MaxSolverConflicts (ErrBudgetExceeded,
// Stats.QueryBudgetAbandons). Budgets are armed relative to the solver's
// cumulative conflict count (sat.SetConflictBudget), so each rung grants
// fresh effort even on a long-lived pooled solver; an escalated re-solve is
// never wasted work either, since the solver keeps the learnt clauses of
// the abandoned attempt.
func (l *Learner) solveAbduction(s *sat.Solver, assumps []sat.Lit, target Pred) (sat.Status, []sat.Lit, error) {
	initial := l.opts.InitialSolverConflicts
	limit := l.opts.MaxSolverConflicts
	if initial < 0 {
		// Ladder disabled (the budget-escalation ablation): one attempt,
		// bounded only by the user limit.
		if limit > 0 {
			s.SetConflictBudget(limit)
		} else {
			s.SetConflictBudget(-1)
		}
		st, core := s.SolveWithCore(assumps)
		if st != sat.Unknown {
			return st, core, nil
		}
		if l.stop.Load() || s.Interrupted() {
			return st, nil, errLearnInterrupted
		}
		atomic.AddInt64(&l.stats.QueryBudgetAbandons, 1)
		return st, nil, fmt.Errorf("abduction query for %s (single attempt, limit %d): %w", target, limit, ErrBudgetExceeded)
	}
	if initial == 0 {
		initial = defaultInitialConflicts
	}
	budget := initial
	if limit > 0 && budget > limit {
		budget = limit
	}
	for {
		if l.stop.Load() {
			return sat.Unknown, nil, errLearnInterrupted
		}
		s.SetConflictBudget(budget) // budget<0 ⇒ unbounded final attempt
		st, core := s.SolveWithCore(assumps)
		if st != sat.Unknown {
			return st, core, nil
		}
		if l.stop.Load() || s.Interrupted() {
			return st, nil, errLearnInterrupted
		}
		atLimit := budget < 0 || (limit > 0 && budget >= limit)
		if atLimit {
			// An Unknown with no budget left and no interrupt is a solver
			// give-up (in practice: an injected fault or a user limit).
			atomic.AddInt64(&l.stats.QueryBudgetAbandons, 1)
			return st, nil, fmt.Errorf("abduction query for %s (limit %d conflicts): %w", target, limit, ErrBudgetExceeded)
		}
		atomic.AddInt64(&l.stats.QueryRetries, 1)
		budget *= escalationFactor
		if limit > 0 {
			if budget > limit {
				budget = limit
			}
		} else if budget > escalationUnboundedAfter {
			budget = -1 // final attempt unbounded
		}
	}
}

// armMinimizeBudget grants core minimization a fresh conflict allowance
// after the main query resolved. MinimizeCore treats an Unknown deletion
// probe as "keep the literal" — sound, merely less minimal — so a bounded
// budget here can cost minimality but never correctness.
func (l *Learner) armMinimizeBudget(s *sat.Solver) {
	if limit := l.opts.MaxSolverConflicts; limit > 0 {
		s.SetConflictBudget(limit)
	} else {
		s.SetConflictBudget(-1)
	}
}

// abductResult is the outcome of one O_abduct invocation.
type abductResult struct {
	// preds is the synthesized abduct (empty = target is inductive under
	// the environment assumption alone); nil together with ok==false means
	// no abduct exists over the candidate set.
	preds []Pred
	ok    bool
}

// abduct implements O_abduct (§3.2.3): it searches for a conjunction over
// the candidate predicates that makes target 1-step relatively inductive,
// using the paper's single UNSAT-core query
//
//	⋀_v P_V ∧ p_target ∧ ¬p'_target
//
// Candidates are attached through selector literals assumed at solve time;
// if the query is SAT there is no abduct; if UNSAT, the (locally
// minimized, mirroring cvc5's minimal-unsat-cores) core over the selectors
// is the abduct. Since ⋀P_V ∧ p_target is non-contradictory — every
// candidate and the target hold on the positive examples (P-S) — the
// UNSAT-ness must come from ¬p'_target, making the extraction sound.
//
// The query runs against a pooled per-worker solver keyed by target-cone
// signature (abductIncremental): the cone encoding, the candidate encodings
// and the solver's learnt clauses persist across the queries of one Learn,
// and the query-specific facts p_target / ¬p'_target are scoped as
// assumptions rather than destructive unit clauses. For a cacheable system
// the whole query is additionally memoized by (target, candidate set,
// minimize flag): predicate IDs are canonical within one system identity,
// so an identical query re-issued by a later Learner — the common case in
// safe-set synthesis, which re-runs Verify after every mutation that leaves
// most cones untouched — is answered without touching a solver. A memoized
// abduct is one the solver really returned for this exact query on this
// exact system, so replaying it preserves soundness; it may differ from
// what a fresh solver would return now (cores are not unique), which is the
// same latitude the solver itself already has.
func (l *Learner) abduct(target Pred, cands []Pred, pool *encoderPool) (abductResult, error) {
	start := time.Now()
	defer func() {
		l.stats.recordQuery(time.Since(start))
	}()
	if faultinject.Enabled() {
		// Chaos tier: stretch the query to widen the cancellation races the
		// interrupt protocol must win.
		faultinject.Sleep(faultinject.QueryDelay)
	}
	var vk verdictKey
	var ckey string
	if l.cache != nil {
		ckey = l.coneIdentFor(target)
		vk = verdictKeyFor(target, cands, l.opts.MinimizeCores)
		if res, fromDisk, ok := l.cache.lookupVerdict(ckey, vk, target, cands); ok {
			atomic.AddInt64(&l.stats.CacheVerdictHits, 1)
			if fromDisk {
				atomic.AddInt64(&l.stats.CacheDiskHits, 1)
			}
			return res, nil
		}
		// Subset-abduct memo: a proven abduct A for this target remains a
		// valid answer for ANY candidate set containing A — adding selector
		// assumptions cannot make A ∧ t ∧ ¬t′ satisfiable, and A ⊆ cands is
		// exactly what qualifies it as this query's abduct. So even when the
		// exact verdict key misses (candidate sets drift across designs and
		// mining changes), a remembered positive answer is replayed for free.
		if preds, fromDisk, ok := l.cache.lookupAbduct(ckey, target, cands); ok {
			atomic.AddInt64(&l.stats.CacheAbductHits, 1)
			if fromDisk {
				atomic.AddInt64(&l.stats.CacheDiskHits, 1)
			}
			return abductResult{preds: preds, ok: true}, nil
		}
	}
	solve := l.abductIncremental
	if l.refAbduct != nil {
		solve = l.refAbduct
	}
	res, err := solve(target, cands, pool)
	if err == nil && l.cache != nil {
		l.cache.storeVerdict(ckey, vk, res)
		if res.ok {
			l.cache.storeAbduct(ckey, target, res)
		}
	}
	return res, err
}

// abductIncremental is the pooled backend: the query runs against the
// worker's long-lived solver for the target's cone. p_target and
// ¬p'_target join the candidate selectors as assumptions, so nothing
// destructive is ever asserted and the solver instance survives arbitrary
// further queries over the same cone.
func (l *Learner) abductIncremental(target Pred, cands []Pred, pool *encoderPool) (abductResult, error) {
	pe, _, err := pool.get(target)
	if err != nil {
		return abductResult{}, err
	}
	defer pe.chargeEncodeWork(l.stats)
	l.releaseDeadSelectors(pe)

	cur, err := pe.litFor(target, false)
	if err != nil {
		return abductResult{}, err
	}
	next, err := pe.litFor(target, true)
	if err != nil {
		return abductResult{}, err
	}
	assumps := make([]sat.Lit, 0, len(cands)+2)
	assumps = append(assumps, cur, next.Not())
	bySel := make(map[sat.Lit]Pred, len(cands))
	for _, p := range cands {
		if p.ID() == target.ID() {
			continue // already assumed via cur
		}
		s, err := pe.selectorFor(p)
		if err != nil {
			return abductResult{}, err
		}
		assumps = append(assumps, s)
		bySel[s] = p
	}

	st, core, err := l.solveAbduction(pe.enc.S, assumps, target)
	if err != nil {
		return abductResult{}, err
	}
	if st == sat.Sat {
		return abductResult{ok: false}, nil
	}
	if l.opts.MinimizeCores {
		// cur/¬next may appear in the core; rank them below every
		// candidate tier so deletion-based minimization drops them only
		// when truly redundant (dropping them is sound: any UNSAT subset
		// of the assumptions stays UNSAT with them re-added).
		orderCoreForMinimization(core, func(s sat.Lit) int {
			if p, ok := bySel[s]; ok {
				return tierOf(p)
			}
			return -1
		})
		l.armMinimizeBudget(pe.enc.S)
		core = pe.enc.S.MinimizeCore(core)
	}
	out := make([]Pred, 0, len(core))
	for _, s := range core {
		p, ok := bySel[s]
		if !ok {
			// The target's own assumptions are always conceptually part
			// of the query; they carry no abduct member.
			if s == cur || s == next.Not() {
				continue
			}
			return abductResult{}, fmt.Errorf("hhoudini: core literal %v is not a selector", s)
		}
		out = append(out, p)
	}
	return abductResult{preds: out, ok: true}, nil
}

// orderCoreForMinimization orders a core for deletion-based minimization,
// biasing toward the weakest abduct (§3.2.3): deletion drops literals
// front-to-back, so the strongest (highest-tier) entries go first and are
// removed whenever the weaker ones suffice.
func orderCoreForMinimization(core []sat.Lit, rank func(sat.Lit) int) {
	sort.SliceStable(core, func(i, j int) bool {
		return rank(core[i]) > rank(core[j])
	})
}

// releaseDeadSelectors retracts pooled selectors whose predicates have
// entered P_fail since the encoder last ran: a failed predicate can never
// appear in any abduct again, so its guarded clause is dead weight the
// solver can garbage-collect.
func (l *Learner) releaseDeadSelectors(pe *pooledEncoder) {
	if len(pe.sels) == 0 {
		return
	}
	var dead []string
	l.mu.Lock()
	for id := range pe.sels {
		if l.failed[id] {
			dead = append(dead, id)
		}
	}
	l.mu.Unlock()
	for _, id := range dead {
		pe.releaseSelector(id)
	}
}
