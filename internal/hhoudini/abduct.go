package hhoudini

import (
	"fmt"
	"time"

	"hhoudini/internal/faultinject"
	"hhoudini/internal/sat"
)

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
// if the query is SAT there is no abduct; if UNSAT, the solver's
// final-conflict core over the selectors — the assumptions the refutation
// used — is the abduct. Since
// ⋀P_V ∧ p_target is non-contradictory — every candidate and the target
// hold on the positive examples (P-S) — the UNSAT-ness must come from
// ¬p'_target, making the extraction sound.
//
// A memo miss is answered by solveQuery on a solver built for this query
// alone, so the answer depends only on (target, candidates), never on which
// worker took the task or what it solved before. For a cacheable system
// every answer lands in the target's monotone memo (VerifyCache.lookup):
// predicate IDs are canonical within one cone key, so a later query — from
// this Learn after a backtrack, or from a later Learner in safe-set
// synthesis, which re-runs Verify after every mutation that leaves most
// cones untouched — is answered without touching a solver whenever its
// candidates are a subset of a set proven Sat or a superset of a proven
// abduct. Both answers are sound: adding candidates cannot make
// A ∧ t ∧ ¬t′ satisfiable, so A stays an abduct of every superset, and
// dropping candidates cannot make a satisfiable query Unsat.
func (l *Learner) abduct(target Pred, cands []Pred) (abductResult, error) {
	start := time.Now()
	var ans queryAnswer
	defer func() {
		l.stats.recordQuery(time.Since(start), ans)
	}()
	if faultinject.Enabled() {
		// Chaos tier: stretch the query to widen the cancellation races the
		// interrupt protocol must win.
		faultinject.Sleep(faultinject.QueryDelay)
	}
	var ckey string
	if l.cache != nil {
		ts, err := l.sliceFor(target)
		if err != nil {
			return abductResult{}, err
		}
		ckey = ts.key
		if res, fromDisk, ok := l.cache.lookup(ckey, target, cands); ok {
			ans = queryAnswer{abductHit: res.ok, verdictHit: !res.ok, diskHit: fromDisk}
			return res, nil
		}
	}
	res, err := l.solveQuery(target, cands, &ans)
	if err == nil && l.cache != nil {
		l.cache.store(ckey, target, cands, res)
	}
	return res, err
}

// solveQuery answers one abduction query on a new solver and a fresh
// Tseitin encoding of the target's cone, dropped when the query returns —
// the paper's one solver per relative-induction check. p_target and
// ¬p'_target are asserted as units; each candidate sits behind its own
// selector so the UNSAT core names the abduct. The query is one unbounded
// solve on a solver that polls the learner's stop flag, so a cancelled
// Learn interrupts it. Once the solver exists, ans records it with its
// encode work and conflicts, whatever the query's outcome.
func (l *Learner) solveQuery(target Pred, cands []Pred, ans *queryAnswer) (abductResult, error) {
	enc, err := l.sys.newEncoder()
	if err != nil {
		return abductResult{}, err
	}
	enc.S.ShareStop(&l.stop)
	defer func() {
		*ans = queryAnswer{solver: true, enc: enc.Stats(), conflicts: enc.S.Stats.Conflicts}
	}()
	cur, err := target.Encode(enc, false)
	if err != nil {
		return abductResult{}, err
	}
	next, err := target.Encode(enc, true)
	if err != nil {
		return abductResult{}, err
	}
	enc.AssertLit(cur)
	enc.AssertLit(next.Not())

	sels := make([]sat.Lit, 0, len(cands))
	bySel := make(map[sat.Lit]Pred, len(cands))
	for _, p := range cands {
		if p.ID() == target.ID() {
			continue // already asserted unconditionally
		}
		lit, err := p.Encode(enc, false)
		if err != nil {
			return abductResult{}, err
		}
		s := enc.NewSelector()
		enc.AssertLitWhen(s, lit) // s → p
		sels = append(sels, s)
		bySel[s] = p
	}

	st, core := enc.S.SolveWithCore(sels)
	switch {
	case st == sat.Sat:
		return abductResult{ok: false}, nil
	case st == sat.Unknown && l.stop.Load():
		return abductResult{}, errLearnInterrupted
	case st == sat.Unknown:
		// Unbounded and not stopped: the solver gave up (in practice, an
		// injected sat.solve.unknown fault).
		return abductResult{}, fmt.Errorf("hhoudini: abduction query for %s: solver returned Unknown", target)
	}
	out := make([]Pred, 0, len(core))
	for _, s := range core {
		p, ok := bySel[s]
		if !ok {
			return abductResult{}, fmt.Errorf("hhoudini: core literal %v is not a selector", s)
		}
		out = append(out, p)
	}
	return abductResult{preds: out, ok: true}, nil
}
