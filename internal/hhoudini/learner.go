package hhoudini

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hhoudini/internal/circuit"
	"hhoudini/internal/faultinject"
	"hhoudini/internal/sat"
)

// Options tune the learner.
type Options struct {
	// Workers is the number of parallel abduction workers (§3.2.4). 1
	// runs the algorithm sequentially and deterministically. 0 defaults
	// to GOMAXPROCS.
	Workers int
	// MinimizeCores shrinks every UNSAT core to a locally minimal one
	// before using it as an abduct (the paper's cvc5 minimal-unsat-cores
	// setting). Disabling it is the core-minimization ablation.
	MinimizeCores bool
	// StagedMining feeds the abduction oracle increasingly large candidate
	// subsets (tier by tier) instead of everything at once — the
	// incremental mining variant of §3.2.3 footnote 4.
	StagedMining bool
	// Cache is the memo store abduction answers are kept in across Learner
	// instances (see VerifyCache); nil selects the process-global shared
	// cache (SharedCache). Pass NewVerifyCache() to isolate a workload. It
	// only engages for cacheable systems (see System.CacheKey).
	Cache *VerifyCache
	// CacheDir, when non-empty (for a cacheable system), binds the cache to
	// a persistent proof store in that directory: the first Learner to name
	// the directory restores the store's verdict and abduct memos into the
	// cache, and every Learn persists the cache back at shutdown — so
	// separate process invocations over the same design share warm starts.
	// Unusable stores (corrupt, version-mismatched, unwritable) degrade to a
	// cold start; they never fail the learner. See OpenProofDB for explicit
	// lifecycle control and CloseProofDBs for the process-exit hook.
	CacheDir string
	// ShareClauses enables lock-free mid-run clause exchange between
	// workers: each worker's solver publishes its hottest learnt clauses
	// (low LBD, short, over canonically named variables) into a bounded
	// per-worker ring and drains its siblings' rings at restart boundaries.
	// It only engages with Workers > 1 — with one worker there is no
	// sibling to share with. Disabling it is the clause-sharing ablation
	// (BenchmarkAblationClauseShare) and restores per-worker solver
	// determinism (the -deterministic flag of the CLIs).
	ShareClauses bool
	// ShareRingSize is the per-worker ring capacity in clauses; 0 selects
	// the default (256). The ring overwrites oldest, so the size bounds
	// memory, not throughput.
	ShareRingSize int
	// InitialSolverConflicts seeds the budget-escalation ladder: every
	// abduction query's first attempt runs under this many solver conflicts
	// and each sat.Unknown verdict escalates the budget ×4 (counted by
	// Stats.QueryRetries) until the query resolves or the ladder tops out
	// at MaxSolverConflicts. 0 selects the default (2048 conflicts); a
	// negative value disables the ladder entirely — each query gets a
	// single attempt bounded only by MaxSolverConflicts — which is the
	// budget-escalation ablation.
	InitialSolverConflicts int64
	// MaxSolverConflicts caps the ladder's per-query budget. 0 means
	// uncapped: once the next escalation step would exceed ~2M conflicts
	// the final attempt runs unbounded. With a positive cap, a query still
	// Unknown at the cap is abandoned with ErrBudgetExceeded (counted by
	// Stats.QueryBudgetAbandons) — the learner degrades with a typed error
	// instead of hanging.
	MaxSolverConflicts int64
}

// DefaultOptions mirror the paper's configuration (minimal cores, one
// worker; mid-run clause sharing engages once Workers > 1).
func DefaultOptions() Options {
	return Options{Workers: 1, MinimizeCores: true, ShareClauses: true}
}

// Tiered is an optional interface predicates may implement to support
// staged mining; lower tiers are offered to the abduction oracle first.
type Tiered interface {
	Tier() int
}

func tierOf(p Pred) int {
	if t, ok := p.(Tiered); ok {
		return t.Tier()
	}
	return 0
}

// Stats aggregates the instrumentation behind the paper's Figures 4 and 5.
//
// The counter fields are updated with atomic operations on the hot path
// (no lock); read them only after Learn returns, or via atomic loads.
//
// hhlint:atomic-counters — every plain-int64 field below is a hot-path
// counter; hhlint's atomicstats pass rejects non-atomic access (plain
// reads are permitted in package main, the post-Learn accessor set).
type Stats struct {
	Tasks      int64 // H-Houdini task bodies executed (Fig. 5 x-axis)
	Backtracks int64 // re-syntheses caused by failed predicates (Fig. 5)
	Queries    int64 // SMT (SAT) queries issued

	// Encode-work counters: what the per-worker solver pools built and how
	// often a query found its cone's solver already warm.
	EncodedGates   int64 // Tseitin gate variables introduced across all queries
	EncodedClauses int64 // clauses pushed into solvers across all queries
	SolverAllocs   int64 // solver/encoder pairs constructed
	PoolReuses     int64 // abduction queries served by an already-warm pooled solver

	// Memo counters, as seen by this learner: whole abduction queries
	// answered by the verdict memo, and queries answered by the subset-abduct
	// memo — a previously proven abduct whose members are all present in the
	// current candidate set is returned without any solver work, even when
	// the candidate sets differ.
	CacheVerdictHits int64
	CacheAbductHits  int64

	// Persistent-proof-store counters (Options.CacheDir / OpenProofDB).
	// CacheDiskHits counts abduction queries answered by a verdict memo
	// restored from disk (the warm-process acceptance metric); the others
	// snapshot the store/cache state at Learn shutdown: records restored
	// at open, flushes of this learner's cache, and the cache's footprint
	// (VerifyCache.Len / Bytes).
	CacheDiskHits    int64
	CacheDiskLoads   int64
	CacheDiskFlushes int64
	CacheEntries     int64
	CacheBytes       int64

	// Mid-run clause-exchange counters (Options.ShareClauses): clauses
	// published into this learner's rings and clauses drained out of
	// sibling rings into a solver. SolverConflicts totals CDCL conflicts
	// across every solver the learner owned — the effort metric the
	// clause-sharing ablation compares.
	ShareExported   int64
	ShareImported   int64
	SolverConflicts int64

	// Budget-escalation counters (Options.InitialSolverConflicts /
	// MaxSolverConflicts): attempts re-issued with an escalated conflict
	// budget after a sat.Unknown, and queries abandoned with
	// ErrBudgetExceeded once the ladder reached its cap.
	QueryRetries        int64
	QueryBudgetAbandons int64

	// WallTime accumulates Learn wall-clock time. It is written under the
	// Stats mutex (addWall) so Snapshot can observe it race-free while a
	// Learn is still running; plain reads remain fine once Learn returns.
	WallTime time.Duration

	mu         sync.Mutex
	queryTimes []time.Duration
	taskTimes  []time.Duration
	// span is the critical-path length through the task dependency graph:
	// the wall time an execution with unbounded workers could not go below
	// (the paper's "parallel span", Fig. 2/3).
	span time.Duration
}

// StatsSnapshot is an atomic, copy-out view of a Stats instrument set. It
// exists for readers that observe a *live* learner — the service layer
// reports per-job and global counters while Learn is still running — where
// plain reads of the counter fields would race the workers' atomic.Adds.
// Every counter is captured with an atomic load and the lock-guarded
// aggregates (wall time, span, query/task totals) under the Stats mutex, so
// a snapshot is internally consistent enough for reporting: each field is a
// value the learner really published, though fields may be skewed by the
// work that happened between loads.
type StatsSnapshot struct {
	Tasks      int64
	Backtracks int64
	Queries    int64

	EncodedGates   int64
	EncodedClauses int64
	SolverAllocs   int64
	PoolReuses     int64

	CacheVerdictHits int64
	CacheAbductHits  int64

	CacheDiskHits    int64
	CacheDiskLoads   int64
	CacheDiskFlushes int64
	CacheEntries     int64
	CacheBytes       int64

	ShareExported   int64
	ShareImported   int64
	SolverConflicts int64

	QueryRetries        int64
	QueryBudgetAbandons int64

	WallTime time.Duration
	Span     time.Duration
	// TotalQueryTime / TotalTaskTime are the summed per-query and per-task
	// durations at snapshot time (the Stats accessor methods, frozen).
	TotalQueryTime time.Duration
	TotalTaskTime  time.Duration
}

// Snapshot captures every counter with atomic loads and the lock-guarded
// aggregates under the mutex. Safe to call at any time, including while
// Learn is running on other goroutines.
func (s *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Tasks:      atomic.LoadInt64(&s.Tasks),
		Backtracks: atomic.LoadInt64(&s.Backtracks),
		Queries:    atomic.LoadInt64(&s.Queries),

		EncodedGates:   atomic.LoadInt64(&s.EncodedGates),
		EncodedClauses: atomic.LoadInt64(&s.EncodedClauses),
		SolverAllocs:   atomic.LoadInt64(&s.SolverAllocs),
		PoolReuses:     atomic.LoadInt64(&s.PoolReuses),

		CacheVerdictHits: atomic.LoadInt64(&s.CacheVerdictHits),
		CacheAbductHits:  atomic.LoadInt64(&s.CacheAbductHits),

		CacheDiskHits:    atomic.LoadInt64(&s.CacheDiskHits),
		CacheDiskLoads:   atomic.LoadInt64(&s.CacheDiskLoads),
		CacheDiskFlushes: atomic.LoadInt64(&s.CacheDiskFlushes),
		CacheEntries:     atomic.LoadInt64(&s.CacheEntries),
		CacheBytes:       atomic.LoadInt64(&s.CacheBytes),

		ShareExported:   atomic.LoadInt64(&s.ShareExported),
		ShareImported:   atomic.LoadInt64(&s.ShareImported),
		SolverConflicts: atomic.LoadInt64(&s.SolverConflicts),

		QueryRetries:        atomic.LoadInt64(&s.QueryRetries),
		QueryBudgetAbandons: atomic.LoadInt64(&s.QueryBudgetAbandons),
	}
	s.mu.Lock()
	snap.WallTime = s.WallTime
	snap.Span = s.span
	for _, d := range s.queryTimes {
		snap.TotalQueryTime += d
	}
	for _, d := range s.taskTimes {
		snap.TotalTaskTime += d
	}
	s.mu.Unlock()
	return snap
}

// statsPrealloc is the initial capacity of the per-query/per-task time
// slices; learning runs on the evaluated designs issue hundreds to a few
// thousand queries, so this avoids repeated growth under the lock.
const statsPrealloc = 1024

func newStats() *Stats {
	return &Stats{
		queryTimes: make([]time.Duration, 0, statsPrealloc),
		taskTimes:  make([]time.Duration, 0, statsPrealloc),
	}
}

// Span returns the critical-path estimate accumulated during Learn.
func (s *Stats) Span() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.span
}

// TotalTaskTime sums all task durations (the total parallelizable work).
func (s *Stats) TotalTaskTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total time.Duration
	for _, d := range s.taskTimes {
		total += d
	}
	return total
}

// addWall folds one Learn's wall time into WallTime under the mutex, so a
// concurrent Snapshot never races the write.
func (s *Stats) addWall(d time.Duration) {
	s.mu.Lock()
	s.WallTime += d
	s.mu.Unlock()
}

func (s *Stats) recordQuery(d time.Duration) {
	atomic.AddInt64(&s.Queries, 1)
	s.mu.Lock()
	s.queryTimes = append(s.queryTimes, d)
	s.mu.Unlock()
}

// recordTask records one task body duration and folds its dependency-chain
// completion time into the span estimate under a single lock acquisition.
func (s *Stats) recordTask(d, chainOut time.Duration) {
	s.mu.Lock()
	s.taskTimes = append(s.taskTimes, d)
	if chainOut > s.span {
		s.span = chainOut
	}
	s.mu.Unlock()
}

// addEncodeWork charges encode-work deltas from one query.
func (s *Stats) addEncodeWork(gates, clauses int64) {
	atomic.AddInt64(&s.EncodedGates, gates)
	atomic.AddInt64(&s.EncodedClauses, clauses)
}

// TaskTimePercentile returns the p-quantile (0..1) of per-task times (all
// time spent in a task body: slicing, mining and solving — Fig. 4's "task
// time").
func (s *Stats) TaskTimePercentile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.taskTimes) == 0 {
		return 0
	}
	ts := append([]time.Duration(nil), s.taskTimes...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	idx := int(p * float64(len(ts)-1))
	return ts[idx]
}

// MedianTaskTime is the Fig. 4 companion metric to MedianQueryTime.
func (s *Stats) MedianTaskTime() time.Duration { return s.TaskTimePercentile(0.5) }

// QueryTimePercentile returns the p-quantile (0..1) of per-query times.
func (s *Stats) QueryTimePercentile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queryTimes) == 0 {
		return 0
	}
	ts := append([]time.Duration(nil), s.queryTimes...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	idx := int(p * float64(len(ts)-1))
	return ts[idx]
}

// MedianQueryTime is the Fig. 4 metric.
func (s *Stats) MedianQueryTime() time.Duration { return s.QueryTimePercentile(0.5) }

// TotalQueryTime sums all query durations (CPU time spent in the solver).
func (s *Stats) TotalQueryTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total time.Duration
	for _, d := range s.queryTimes {
		total += d
	}
	return total
}

// Invariant is a learned inductive invariant: the conjunction of Preds. It
// proves each predicate in Targets (which are members of Preds).
type Invariant struct {
	Preds   []Pred
	Targets []Pred
}

// Size is the number of predicates (the paper's "invariant size", Table 1).
func (inv *Invariant) Size() int { return len(inv.Preds) }

// Contains reports whether the invariant includes a predicate by ID.
func (inv *Invariant) Contains(id string) bool {
	for _, p := range inv.Preds {
		if p.ID() == id {
			return true
		}
	}
	return false
}

// Learner runs the H-Houdini algorithm over a system with pluggable
// slicing and mining oracles.
type Learner struct {
	sys   *System
	slice SliceOracle
	mine  MineOracle
	opts  Options
	stats *Stats

	// cache/cacheKey enable answer memoization across Learners. Both stay
	// zero when the system is not cacheable (System.CacheKey), in which case
	// every query is solved.
	cache    *VerifyCache
	cacheKey string
	// coneIdents memoizes per-target cone cache keys (coneIdentFor) by
	// predicate ID. Cone membership is a pure function of the predicate and
	// the circuit, so the memo is sound for the learner's lifetime.
	coneIdents sync.Map // pred ID → string
	// pdb is the persistent proof store bound via Options.CacheDir (nil
	// when persistence is off or the store is unusable). Learn flushes the
	// cache into it at shutdown.
	pdb *ProofDB

	// init is the reset-state snapshot, computed once per learner;
	// initEval memoizes per-predicate init-state evaluation by pred ID
	// (s0 is a fixed positive example, so the verdict never changes).
	init     circuit.Snapshot
	initEval sync.Map // pred ID → bool

	// stop is the cancellation flag: set once (by LearnCtx's watcher when
	// the context fires), read on every worker iteration and between
	// escalation-ladder attempts. It is never cleared — a Learner runs one
	// Learn, so a stale stop can only make cancellation more prompt.
	stop atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond
	entries map[string]*entry
	failed  map[string]bool
	queue   []string
	active  int
	err     error
	// solvers is the registry of live solver instances currently owned by
	// this learner's worker pools. A cancellation interrupts every member so
	// in-flight CDCL searches return Unknown within one interrupt-check
	// interval instead of running to completion; on deregistration the
	// solver's conflicts are folded into Stats.SolverConflicts.
	solvers map[*sat.Solver]struct{}

	// exchange is the mid-run clause-sharing fabric (Options.ShareClauses);
	// nil when sharing is off or the learner runs a single worker.
	exchange *clauseExchange

	// refAbduct, when set, answers memo misses instead of abductIncremental.
	// Only the in-package differential tests set it (to a fresh-solver-per-
	// query reference); production learners leave it nil.
	refAbduct func(target Pred, cands []Pred, pool *encoderPool) (abductResult, error)
}

type entry struct {
	pred   Pred
	solved bool
	queued bool
	abduct []Pred
	deps   map[string]bool // IDs of entries whose abduct references this one
	// chainIn is the longest dependency chain (in task time) leading to
	// this obligation; chainIn + own task time feeds the span estimate.
	chainIn time.Duration
}

// NewLearner builds a learner with the default COI slicing oracle.
func NewLearner(sys *System, mine MineOracle, opts Options) *Learner {
	l := &Learner{
		sys:     sys,
		slice:   NewCOISlicer(sys.Circuit),
		mine:    mine,
		opts:    opts,
		stats:   newStats(),
		init:    circuit.InitSnapshot(sys.Circuit),
		entries: make(map[string]*entry),
		failed:  make(map[string]bool),
		solvers: make(map[*sat.Solver]struct{}),
	}
	if l.opts.Workers == 0 {
		l.opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.ShareClauses && l.opts.Workers > 1 {
		l.exchange = newClauseExchange(l.opts.Workers, opts.ShareRingSize, l.stats)
	}
	if key, ok := sys.CacheKey(); ok {
		l.cacheKey = key
		l.cache = opts.Cache
		if l.cache == nil {
			l.cache = sharedCache
		}
		if opts.CacheDir != "" {
			// Best-effort: an unusable store leaves pdb nil and the learner
			// runs with the in-memory cache alone.
			l.pdb = boundProofDB(opts.CacheDir, l.cache)
		}
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// coneIdentFor derives (and memoizes) the cache key a target's query
// answers live under: the canonical fingerprint of its cone
// (System.ConeCacheKey). The cone's support is the target's slice — the
// candidate universe of its abduction queries — unioned with its own
// variables, so an equal key pins the structure every answer under it can
// reference: the target's next-state cone, every candidate's registers
// (names, widths, resets) and the input interface. When slicing fails the
// identity degrades to the whole-circuit key, which is always sound.
func (l *Learner) coneIdentFor(target Pred) string {
	if v, ok := l.coneIdents.Load(target.ID()); ok {
		return v.(string)
	}
	key := l.cacheKey
	if slice, err := l.slice.Slice(target); err == nil {
		support := append(append([]string(nil), slice...), target.Vars()...)
		if k, ok := l.sys.ConeCacheKey(support); ok {
			key = k
		}
	}
	l.coneIdents.Store(target.ID(), key)
	return key
}

// Stats exposes the instrumentation collected during Learn.
func (l *Learner) Stats() *Stats { return l.stats }

// FailedPreds returns the IDs in P_fail after learning — predicates proven
// unable to appear in any invariant. Useful for diagnosing backtracking.
func (l *Learner) FailedPreds() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.failed))
	for id := range l.failed {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Learn runs H-Houdini for the given target predicates (the property P,
// possibly a conjunction) and returns the inductive invariant proving all
// of them, or nil if none exists within the predicate language. It is
// LearnCtx under a background (never-cancelled) context.
func (l *Learner) Learn(targets []Pred) (*Invariant, error) {
	return l.LearnCtx(context.Background(), targets)
}

// LearnCtx is Learn under a context: when ctx is cancelled (or its
// deadline passes), every in-flight solver query is interrupted, the
// workers drain and drop their solvers, the proof store is flushed — the
// answers memoized so far survive into the next run — and LearnCtx returns
// ctx.Err() promptly. A learner is single-shot: once cancelled it cannot be
// reused.
func (l *Learner) LearnCtx(ctx context.Context, targets []Pred) (*Invariant, error) {
	start := time.Now()
	defer func() { l.stats.addWall(time.Since(start)) }()
	defer l.finishPersist()

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The property must at least hold initially.
	for _, t := range targets {
		ok, err := l.holdsAtInit(t)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil // property violated in the initial state
		}
	}

	l.mu.Lock()
	for _, t := range targets {
		l.getOrCreateLocked(t)
		l.enqueueLocked(t.ID())
	}
	l.mu.Unlock()

	// The watcher translates a context fire into the learner's stop
	// protocol; the done channel retires it as soon as the workers drain so
	// no goroutine outlives LearnCtx.
	done := make(chan struct{})
	var watcher sync.WaitGroup
	if ctx.Done() != nil {
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-ctx.Done():
				l.interrupt()
			case <-done:
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < l.opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l.worker(w)
		}(w)
	}
	wg.Wait()
	close(done)
	watcher.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	if cerr := ctx.Err(); cerr != nil && (l.err == nil || errors.Is(l.err, errLearnInterrupted)) {
		// A worker may report the internal interrupt marker before the
		// watcher records anything (it polls the stop flag directly), or
		// the run may have finished in the same instant the context fired;
		// either way the caller sees the context's own error.
		return nil, cerr
	}
	if l.err != nil {
		return nil, l.err
	}
	for _, t := range targets {
		if l.failed[t.ID()] {
			return nil, nil // None: no invariant proves the property
		}
	}
	return l.assembleLocked(targets)
}

// interrupt initiates the cancellation protocol: flag the stop bit (polled
// by workers and the escalation ladder), record the interrupt marker so
// cond-waiting workers exit, and interrupt every live solver so in-flight
// CDCL searches abort at their next interrupt check. Solver interruption
// happens outside l.mu — Interrupt is a plain atomic store, but keeping
// foreign calls out of the critical section is this package's lock
// discipline (hhlint lockscope).
func (l *Learner) interrupt() {
	l.stop.Store(true)
	l.mu.Lock()
	if l.err == nil {
		l.err = errLearnInterrupted
	}
	live := make([]*sat.Solver, 0, len(l.solvers))
	for sv := range l.solvers {
		live = append(live, sv)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, s := range live {
		s.Interrupt()
	}
}

// trackSolver registers a solver a worker's pool has just constructed with
// the cancellation registry. If this learner has already stopped, the
// solver is interrupted immediately to close the register/interrupt race.
func (l *Learner) trackSolver(s *sat.Solver) {
	l.mu.Lock()
	l.solvers[s] = struct{}{}
	l.mu.Unlock()
	if l.stop.Load() {
		s.Interrupt()
	}
}

// untrackSolver removes a solver its pool is dropping from the cancellation
// registry, charging the conflicts it burned to Stats.SolverConflicts.
func (l *Learner) untrackSolver(s *sat.Solver) {
	l.mu.Lock()
	delete(l.solvers, s)
	l.mu.Unlock()
	// The solver is idle — its worker's last query has returned — so the
	// plain read is safe.
	atomic.AddInt64(&l.stats.SolverConflicts, s.Stats.Conflicts)
}

// finishPersist runs at Learn shutdown: it snapshots the cache's footprint
// into Stats and, when a proof store is bound, persists the run's deltas.
// With a journal the deltas were appended as they landed, so this is a cheap
// fsync; the store escalates to a full snapshot rewrite on its own when the
// journal is disabled, degraded, or oversized.
func (l *Learner) finishPersist() {
	if l.cache == nil {
		return
	}
	atomic.StoreInt64(&l.stats.CacheEntries, int64(l.cache.Len()))
	atomic.StoreInt64(&l.stats.CacheBytes, l.cache.Bytes())
	if l.pdb == nil {
		return
	}
	if err := l.pdb.Persist(); err == nil {
		atomic.AddInt64(&l.stats.CacheDiskFlushes, 1)
	}
	st := l.pdb.Stats()
	atomic.StoreInt64(&l.stats.CacheDiskLoads, st.ClausesLoaded+st.VerdictsLoaded+st.AbductsLoaded)
}

func (l *Learner) getOrCreateLocked(p Pred) *entry {
	e, ok := l.entries[p.ID()]
	if !ok {
		e = &entry{pred: p, deps: make(map[string]bool)}
		l.entries[p.ID()] = e
	}
	return e
}

func (l *Learner) enqueueLocked(id string) {
	e := l.entries[id]
	if e == nil || e.queued || e.solved || l.failed[id] {
		return
	}
	e.queued = true
	l.queue = append(l.queue, id)
	l.cond.Broadcast()
}

// holdsAtInit evaluates a predicate on the cached reset snapshot,
// memoizing the verdict by predicate ID.
func (l *Learner) holdsAtInit(p Pred) (bool, error) {
	id := p.ID()
	if v, ok := l.initEval.Load(id); ok {
		return v.(bool), nil
	}
	ok, err := p.Eval(l.sys.Circuit, l.init)
	if err != nil {
		return false, err
	}
	l.initEval.Store(id, ok)
	return ok, nil
}

// worker pulls obligations until the global fixpoint is reached. Each
// worker owns a private solver/encoder pool for the incremental abduction
// backend (solvers are single-threaded; pooling per worker keeps the hot
// path lock-free). w is the worker's index — its producer slot in the
// mid-run clause exchange.
func (l *Learner) worker(w int) {
	pool := newEncoderPool(l.sys, l.stats)
	pool.attachExchange(l.exchange, w)
	pool.observeSolvers(l.trackSolver, l.untrackSolver)
	defer pool.retire()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && l.active > 0 && l.err == nil && !l.stop.Load() {
			l.cond.Wait()
		}
		if (len(l.queue) == 0 && l.active == 0) || l.err != nil || l.stop.Load() {
			l.cond.Broadcast()
			l.mu.Unlock()
			return
		}
		id := l.queue[0]
		l.queue = l.queue[1:]
		e := l.entries[id]
		e.queued = false
		if e.solved || l.failed[id] {
			l.mu.Unlock()
			continue
		}
		l.active++
		pred := e.pred
		l.mu.Unlock()

		err := l.runTask(pred, pool)

		l.mu.Lock()
		l.active--
		if err != nil && l.err == nil {
			l.err = err
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// runTask executes one task body under the worker's recover boundary
// (hhlint:panic-boundary): a panic anywhere inside — oracle code,
// predicate encodings, the solver — becomes a *PanicError carrying the
// stack, which fails this Learn through the ordinary error path while
// sibling workers drain cleanly and the process survives. This is the only
// recover site in the learner; the panicscope lint pass enforces that it
// stays that way.
func (l *Learner) runTask(pred Pred, pool *encoderPool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{PredID: pred.ID(), Value: r, Stack: debug.Stack()}
		}
	}()
	if faultinject.Enabled() && faultinject.Fire(faultinject.WorkerPanic) {
		panic("faultinject: scheduled worker panic")
	}
	return l.solveOne(pred, pool)
}

// solveOne runs one H-Houdini task body: slice, mine, abduct, record.
func (l *Learner) solveOne(pred Pred, pool *encoderPool) error {
	if l.stop.Load() {
		return errLearnInterrupted
	}
	taskStart := time.Now()
	l.mu.Lock()
	chainIn := l.entries[pred.ID()].chainIn
	l.mu.Unlock()
	defer func() {
		d := time.Since(taskStart)
		l.stats.recordTask(d, chainIn+d)
	}()
	atomic.AddInt64(&l.stats.Tasks, 1)

	slice, err := l.slice.Slice(pred)
	if err != nil {
		return err
	}
	cands, err := l.mine.Mine(pred, slice)
	if err != nil {
		return err
	}
	l.mu.Lock()
	live := make([]Pred, 0, len(cands))
	for _, c := range cands {
		if !l.failed[c.ID()] {
			live = append(live, c)
		}
	}
	l.mu.Unlock()

	res, err := l.runAbduct(pred, live, pool)
	if err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	id := pred.ID()
	e := l.entries[id]
	if !res.ok {
		l.failLocked(id)
		return nil
	}
	// A member may have failed while we were solving; retry if so
	// (the soln ∩ P_fail check of Algorithm 1, line 3).
	for _, m := range res.preds {
		if l.failed[m.ID()] {
			atomic.AddInt64(&l.stats.Backtracks, 1)
			l.enqueueLocked(id)
			return nil
		}
	}
	e.solved = true
	e.abduct = res.preds
	chainOut := e.chainIn + time.Since(taskStart)
	for _, m := range res.preds {
		c := l.getOrCreateLocked(m)
		c.deps[id] = true
		if chainOut > c.chainIn {
			c.chainIn = chainOut
		}
		if !c.solved {
			l.enqueueLocked(m.ID())
		}
	}
	return nil
}

// runAbduct dispatches to the single-shot or staged abduction strategy.
// Candidates violated by the initial state are dropped first: s0 is always
// a positive example (Definition 4.8), so such predicates can never appear
// in an invariant — this keeps the learner sound even against mining
// oracles that do not fully honor Contract 2. The init-state verdicts are
// memoized per predicate ID (holdsAtInit), and the filter builds a fresh
// slice: the caller retains ownership of cands (mining oracles may hand
// out shared or cached slices, so filtering in place would corrupt them).
func (l *Learner) runAbduct(pred Pred, cands []Pred, pool *encoderPool) (abductResult, error) {
	kept := make([]Pred, 0, len(cands))
	for _, c := range cands {
		ok, err := l.holdsAtInit(c)
		if err != nil {
			return abductResult{}, err
		}
		if ok {
			kept = append(kept, c)
		}
	}
	cands = kept
	if !l.opts.StagedMining {
		return l.abduct(pred, cands, pool)
	}
	maxTier := 0
	for _, c := range cands {
		if t := tierOf(c); t > maxTier {
			maxTier = t
		}
	}
	for tier := 0; tier <= maxTier; tier++ {
		subset := make([]Pred, 0, len(cands))
		for _, c := range cands {
			if tierOf(c) <= tier {
				subset = append(subset, c)
			}
		}
		res, err := l.abduct(pred, subset, pool)
		if err != nil {
			return abductResult{}, err
		}
		if res.ok {
			return res, nil
		}
	}
	return abductResult{ok: false}, nil
}

// failLocked marks a predicate unusable and partially backtracks: every
// memoized solution referencing it is invalidated and re-enqueued (§3.2.1
// — only the failure path is squashed; all other solutions are reused).
func (l *Learner) failLocked(id string) {
	if l.failed[id] {
		return
	}
	l.failed[id] = true
	e := l.entries[id]
	if e == nil {
		return
	}
	for depID := range e.deps {
		d := l.entries[depID]
		if d == nil || !d.solved {
			continue
		}
		uses := false
		for _, m := range d.abduct {
			if m.ID() == id {
				uses = true
				break
			}
		}
		if uses {
			d.solved = false
			d.abduct = nil
			atomic.AddInt64(&l.stats.Backtracks, 1)
			l.enqueueLocked(depID)
		}
	}
}

// assembleLocked composes the hierarchy of abducts into the monolithic
// invariant (the correct-by-construction composition of §3.1): the closure
// of the targets under abduct membership.
func (l *Learner) assembleLocked(targets []Pred) (*Invariant, error) {
	seen := make(map[string]bool)
	var preds []Pred
	var stack []Pred
	for _, t := range targets {
		if !seen[t.ID()] {
			seen[t.ID()] = true
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		preds = append(preds, p)
		e := l.entries[p.ID()]
		if e == nil || !e.solved {
			return nil, fmt.Errorf("hhoudini: internal: %s in closure but unsolved", p)
		}
		for _, m := range e.abduct {
			if !seen[m.ID()] {
				seen[m.ID()] = true
				stack = append(stack, m)
			}
		}
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i].ID() < preds[j].ID() })
	return &Invariant{Preds: preds, Targets: targets}, nil
}
