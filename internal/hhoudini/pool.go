package hhoudini

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"hhoudini/internal/circuit"
	"hhoudini/internal/sat"
)

// encoderPool is a per-worker cache of live solver/encoder pairs keyed by
// target-cone signature. It is the substrate of the incremental abduction
// backend: predicates ranging over the same state variables share a
// next-state cone, so their relative-induction queries run against one
// long-lived solver whose cone encoding, candidate-predicate encodings and
// learnt clauses all persist across queries (§3.2's "small, incremental,
// memoizable" checks made literal at the solver level).
//
// A pool is the single owner of its solvers, from first use to the end of
// one Learn: it belongs to exactly one worker goroutine and must not be
// shared (the underlying sat.Solver is not safe for concurrent use), and
// retire() drops every pair when the worker exits. Only answers outlive a
// Learn (VerifyCache). Parallel learners hold one pool per worker,
// mirroring the paper's per-task solver processes while still amortizing
// encode work within each worker.
type encoderPool struct {
	sys     *System
	stats   *Stats
	entries map[uint64]*pooledEncoder

	// exchange/worker wire pooled solvers into the mid-run clause-sharing
	// fabric (attachExchange): worker is this pool's producer slot. A nil
	// exchange leaves sharing off.
	exchange *clauseExchange
	worker   int

	// onSolver/onRetire observe solvers entering and leaving the pool's
	// ownership (observeSolvers). The learner uses them to maintain its
	// cancellation registry: every live solver must be interruptible when
	// the owning LearnCtx is cancelled.
	onSolver func(*sat.Solver)
	onRetire func(*sat.Solver)
}

// newEncoderPool creates an empty pool bound to a system. stats may be nil.
func newEncoderPool(sys *System, stats *Stats) *encoderPool {
	return &encoderPool{sys: sys, stats: stats, entries: make(map[uint64]*pooledEncoder)}
}

// attachExchange connects the pool to the learner's mid-run clause
// exchange, with w as this pool's (worker's) producer slot. A nil exchange
// is a no-op.
func (pl *encoderPool) attachExchange(x *clauseExchange, w int) {
	pl.exchange, pl.worker = x, w
}

// observeSolvers installs the ownership observers: onSolver fires for each
// solver the pool constructs, onRetire for each solver it drops at
// retire(). Either may be nil.
func (pl *encoderPool) observeSolvers(onSolver, onRetire func(*sat.Solver)) {
	pl.onSolver, pl.onRetire = onSolver, onRetire
}

// coneKeys memoizes coneKey by predicate ID. Cone membership is a pure
// function of the predicate (Vars() is fixed per ID), so the memo is sound
// process-wide and shared across all pools and Learners.
var coneKeys sync.Map // pred ID (string) → uint64

// coneKey keys pooled solvers. Predicates over the same state variables
// (e.g. Eq(v), EqConst(v,c) and InSafeSet(v) for one v) share the 1-step
// cone of those variables, hence an encoder. The key is a fixed-width FNV
// hash of the sorted variable list, computed once per predicate ID: the
// previous string-concatenation signature allocated and hashed the full
// variable list on every query. A hash collision merely merges two cones
// into one solver — sound (the solver holds strictly more of the base
// system), just a different sharding.
func coneKey(p Pred) uint64 {
	id := p.ID()
	if v, ok := coneKeys.Load(id); ok {
		return v.(uint64)
	}
	vars := append([]string(nil), p.Vars()...)
	sort.Strings(vars)
	h := fnv.New64a()
	for _, v := range vars {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	k := h.Sum64()
	coneKeys.Store(id, k)
	return k
}

// get returns the pooled encoder for the target's cone, constructing (and
// constraining) a fresh solver on first use. The second result reports
// whether the encoder was already warm.
func (pl *encoderPool) get(target Pred) (*pooledEncoder, bool, error) {
	ck := coneKey(target)
	if pe, ok := pl.entries[ck]; ok {
		if pl.stats != nil {
			atomic.AddInt64(&pl.stats.PoolReuses, 1)
		}
		return pe, true, nil
	}
	enc, err := pl.sys.newEncoder()
	if err != nil {
		return nil, false, err
	}
	if pl.stats != nil {
		atomic.AddInt64(&pl.stats.SolverAllocs, 1)
	}
	pe := &pooledEncoder{enc: enc, sels: make(map[string]sat.Lit)}
	pl.entries[ck] = pe
	if pl.onSolver != nil {
		pl.onSolver(enc.S)
	}
	if pl.exchange != nil {
		pl.exchange.install(pl.worker, enc)
	}
	return pe, false, nil
}

// size returns the number of live solver/encoder pairs in the pool.
func (pl *encoderPool) size() int { return len(pl.entries) }

// retire drops every live encoder at the end of the worker's Learn,
// reporting each solver to onRetire first.
func (pl *encoderPool) retire() {
	if pl.onRetire != nil {
		for _, pe := range pl.entries {
			pl.onRetire(pe.enc.S)
		}
	}
	pl.entries = nil
}

// pooledEncoder is one long-lived solver/encoder pair plus the caches that
// make repeat queries cheap: predicate encodings are memoized by predicate
// ID and frame (via the encoder's Memo), and each candidate predicate gets
// one persistent selector literal guarding its attachment clause.
type pooledEncoder struct {
	enc *circuit.Encoder
	// sels maps candidate predicate IDs to their persistent activation
	// literal (guarding sel → p). A selector absent from a query's
	// assumptions leaves its clause inactive at zero cost.
	sels map[string]sat.Lit
	// lastGates/lastClauses snapshot the encoder counters at the previous
	// query boundary so per-query deltas can be charged to Stats.
	lastGates, lastClauses int64
}

// litFor returns the memoized encoding of p in the chosen frame.
func (pe *pooledEncoder) litFor(p Pred, next bool) (sat.Lit, error) {
	key := p.ID()
	if next {
		key += "\x00next"
	} else {
		key += "\x00cur"
	}
	return pe.enc.Memo(key, func() (sat.Lit, error) { return p.Encode(pe.enc, next) })
}

// selectorFor returns the persistent activation literal attaching p as a
// candidate, encoding p and adding the guarded clause sel → p on first use.
func (pe *pooledEncoder) selectorFor(p Pred) (sat.Lit, error) {
	if s, ok := pe.sels[p.ID()]; ok {
		return s, nil
	}
	lit, err := pe.litFor(p, false)
	if err != nil {
		return 0, err
	}
	s := pe.enc.NewSelector()
	pe.enc.AssertLitWhen(s, lit)
	pe.sels[p.ID()] = s
	return s, nil
}

// releaseSelector permanently retracts the selector of a predicate proven
// globally unusable (P_fail): the solver pins it false and eventually
// garbage-collects the dead guarded clause.
func (pe *pooledEncoder) releaseSelector(id string) {
	if s, ok := pe.sels[id]; ok {
		pe.enc.S.Release(s)
		delete(pe.sels, id)
	}
}

// chargeEncodeWork adds the encoder's stat delta since the previous call
// to the learner-level counters.
func (pe *pooledEncoder) chargeEncodeWork(stats *Stats) {
	es := pe.enc.Stats()
	stats.addEncodeWork(es.Gates-pe.lastGates, es.Clauses-pe.lastClauses)
	pe.lastGates, pe.lastClauses = es.Gates, es.Clauses
}
