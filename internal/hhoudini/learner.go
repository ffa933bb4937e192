package hhoudini

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hhoudini/internal/circuit"
	"hhoudini/internal/faultinject"
	"hhoudini/internal/proofdb"
)

// Options tune the learner.
type Options struct {
	// Workers is the number of parallel abduction workers (§3.2.4). 1
	// runs the algorithm sequentially and deterministically. 0 defaults
	// to GOMAXPROCS.
	Workers int
	// Cache is the memo store abduction answers are kept in across Learner
	// instances (see VerifyCache); nil selects the process-global shared
	// cache (SharedCache). Pass NewVerifyCache() to isolate a workload. It
	// only engages for cacheable systems (see System.EnvKey).
	Cache *VerifyCache
	// CacheDir, when non-empty (for a cacheable system), binds the cache to
	// a persistent proof store in that directory: the store's abducts and
	// Sat sets are restored into the cache when it is first bound there,
	// each record the cache derives is appended to the store as it lands,
	// and every Learn makes those appends durable at shutdown — so separate
	// process invocations over the same design share warm starts. A cache
	// bound to another directory moves to it.
	// Unusable stores (corrupt, version-mismatched, unwritable) degrade to a
	// cold start; they never fail the learner. CloseProofDBs is the
	// process-exit hook.
	CacheDir string
}

// DefaultOptions run the learner with one worker.
func DefaultOptions() Options {
	return Options{Workers: 1}
}

// Counters are the learner's event counts behind the paper's Figures 4 and 5,
// the memo and encode-work accounting, and the proof-store footprint. Stats
// keeps one Counters under its mutex; StatsSnapshot and the service's wire
// view copy it whole. The JSON names are the service's wire names.
type Counters struct {
	Tasks      int64 `json:"tasks"`      // H-Houdini task bodies executed (Fig. 5 x-axis)
	Backtracks int64 `json:"backtracks"` // re-syntheses caused by failed predicates (Fig. 5)
	Queries    int64 `json:"queries"`    // SMT (SAT) queries issued

	// Encode-work counters: what the per-query solvers were built from. Every
	// solved query builds one solver, so on a cold run SolverAllocs equals
	// Queries. PoolReuses always reads 0: no solver outlives its query. The
	// field stays for callers that read it.
	EncodedGates   int64 `json:"encoded_gates"`   // Tseitin gate variables introduced across all queries
	EncodedClauses int64 `json:"encoded_clauses"` // clauses pushed into solvers across all queries
	SolverAllocs   int64 `json:"solver_allocs"`   // solver/encoder pairs constructed
	PoolReuses     int64 `json:"pool_reuses"`

	// Memo counters, as seen by this learner (VerifyCache.lookup): queries
	// answered "no abduct" because their candidates are a subset of a set
	// proven Sat, and queries answered by a proven abduct their candidates
	// contain. Neither builds a solver, so every query is exactly one of a
	// solver, a verdict hit or an abduct hit.
	CacheVerdictHits int64 `json:"cache_verdict_hits"`
	CacheAbductHits  int64 `json:"cache_abduct_hits"`

	// Persistent-proof-store counters (Options.CacheDir).
	// CacheDiskHits counts abduction queries answered by a memo record
	// restored from disk (the warm-process acceptance metric); the others
	// are set at Learn shutdown: records restored at open, flushes of this
	// learner's store, and the cache's footprint (VerifyCache.Len / Bytes).
	CacheDiskHits    int64 `json:"cache_disk_hits"`
	CacheDiskLoads   int64 `json:"cache_disk_loads"`
	CacheDiskFlushes int64 `json:"cache_disk_flushes"`
	CacheEntries     int64 `json:"cache_entries"`
	CacheBytes       int64 `json:"cache_bytes"`

	// SolverConflicts totals CDCL conflicts across every solver the learner
	// owned. ShareImported always reads 0: solvers share no clauses inside
	// a Learn. The field stays for callers that read it.
	ShareImported   int64 `json:"share_imported"`
	SolverConflicts int64 `json:"solver_conflicts"`

	// QueryRetries always reads 0: every abduction query is one solve. The
	// field stays for callers that read it (the repository benchmark).
	QueryRetries int64 `json:"query_retries"`
}

// Stats aggregates the instrumentation behind the paper's Figures 4 and 5.
//
// mu guards every field: the learner writes them under it, and Snapshot
// copies them under it. Read the fields directly only after Learn returns;
// a reader that observes a running Learn calls Snapshot.
type Stats struct {
	Counters

	// WallTime accumulates Learn wall-clock time.
	WallTime time.Duration

	mu         sync.Mutex
	queryTimes []time.Duration
	taskTimes  []time.Duration
	// span is the critical-path length through the task dependency graph:
	// the wall time an execution with unbounded workers could not go below
	// (the paper's "parallel span", Fig. 2/3).
	span time.Duration
}

// StatsSnapshot is one locked copy of a Stats: the counters and the
// aggregates of the time series, all from the same moment, so a snapshot
// of a running Learn is consistent with itself (Queries equals
// SolverAllocs + CacheVerdictHits + CacheAbductHits, for instance).
type StatsSnapshot struct {
	Counters
	WallTime time.Duration
	Span     time.Duration
	// TotalQueryTime / TotalTaskTime are the summed per-query and per-task
	// durations at snapshot time.
	TotalQueryTime time.Duration
	TotalTaskTime  time.Duration
}

// Snapshot copies the counters and aggregates under the mutex. Safe to call
// at any time, including while Learn is running on other goroutines.
func (s *Stats) Snapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StatsSnapshot{
		Counters:       s.Counters,
		WallTime:       s.WallTime,
		Span:           s.span,
		TotalQueryTime: total(s.queryTimes),
		TotalTaskTime:  total(s.taskTimes),
	}
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
func (s *Stats) Span() time.Duration { return s.Snapshot().Span }

// TotalTaskTime sums all task durations (the total parallelizable work).
func (s *Stats) TotalTaskTime() time.Duration { return s.Snapshot().TotalTaskTime }

// TotalQueryTime sums all query durations (CPU time spent in the solver).
func (s *Stats) TotalQueryTime() time.Duration { return s.Snapshot().TotalQueryTime }

// addWall folds one Learn's wall time into WallTime.
func (s *Stats) addWall(d time.Duration) {
	s.mu.Lock()
	s.WallTime += d
	s.mu.Unlock()
}

// queryAnswer is what answered one abduction query: a memo record (an
// abduct or a Sat set, restored from disk or not), or the solver
// solveQuery built, whose encode work and conflicts it carries. The zero
// value is a query that failed before either answered.
type queryAnswer struct {
	abductHit, verdictHit, diskHit bool

	solver    bool
	enc       circuit.EncoderStats
	conflicts int64
}

// recordQuery counts one abduction query, its time and what answered it,
// in one critical section.
func (s *Stats) recordQuery(d time.Duration, a queryAnswer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Queries++
	s.queryTimes = append(s.queryTimes, d)
	switch {
	case a.solver:
		s.SolverAllocs++
		s.EncodedGates += a.enc.Gates
		s.EncodedClauses += a.enc.Clauses
		s.SolverConflicts += a.conflicts
	case a.abductHit:
		s.CacheAbductHits++
	case a.verdictHit:
		s.CacheVerdictHits++
	}
	if a.diskHit {
		s.CacheDiskHits++
	}
}

// recordTask counts one task body, records its duration and folds its
// dependency-chain completion time into the span estimate.
func (s *Stats) recordTask(d, chainOut time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Tasks++
	s.taskTimes = append(s.taskTimes, d)
	s.span = max(s.span, chainOut)
}

// backtrack counts one re-synthesis caused by a failed predicate.
func (s *Stats) backtrack() {
	s.mu.Lock()
	s.Backtracks++
	s.mu.Unlock()
}

// quantile returns the p-quantile (0..1) of ds, or 0 when ds is empty.
func quantile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ts := slices.Clone(ds)
	slices.Sort(ts)
	return ts[int(p*float64(len(ts)-1))]
}

// total sums ds.
func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// TaskTimePercentile returns the p-quantile (0..1) of per-task times (all
// time spent in a task body: slicing, mining and solving — Fig. 4's "task
// time").
func (s *Stats) TaskTimePercentile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.taskTimes, p)
}

// MedianTaskTime is the Fig. 4 companion metric to MedianQueryTime.
func (s *Stats) MedianTaskTime() time.Duration { return s.TaskTimePercentile(0.5) }

// QueryTimePercentile returns the p-quantile (0..1) of per-query times.
func (s *Stats) QueryTimePercentile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.queryTimes, p)
}

// MedianQueryTime is the Fig. 4 metric.
func (s *Stats) MedianQueryTime() time.Duration { return s.QueryTimePercentile(0.5) }

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

// Learner runs the H-Houdini algorithm over a system with a pluggable
// mining oracle.
type Learner struct {
	sys   *System
	mine  MineOracle
	opts  Options
	stats *Stats

	// cache enables answer memoization across Learners. It stays nil when
	// the system is not cacheable (System.EnvKey), in which case every
	// query is solved.
	cache *VerifyCache
	// sliceMemo memoizes each target's slice and cone key (sliceFor) by
	// predicate ID. Both are pure functions of the predicate and the
	// circuit, so the memo is sound for the learner's lifetime.
	sliceMemo sync.Map // pred ID → *targetSlice
	// pdb is the persistent proof store bound via Options.CacheDir (nil
	// when persistence is off or the store is unusable). The cache appends
	// to it as answers land; Learn persists it at shutdown.
	pdb *proofdb.DB

	// init is the reset-state snapshot, computed once per learner;
	// initEval memoizes per-predicate init-state evaluation by pred ID
	// (s0 is a fixed positive example, so the verdict never changes).
	init     circuit.Snapshot
	initEval sync.Map // pred ID → bool

	// stop is the cancellation flag: set once (by LearnCtx's watcher when
	// the context fires), read on every worker iteration and polled by every
	// query's solver (sat.Solver.ShareStop), so one store interrupts the
	// in-flight searches. It is never cleared — a Learner runs one Learn, so
	// a stale stop can only make cancellation more prompt.
	stop atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond
	entries map[string]*entry
	failed  map[string]bool
	queue   []string
	active  int
	err     error
}

type entry struct {
	pred   Pred
	solved bool
	queued bool
	// running is set while a worker solves this obligation. The running
	// task settles the entry — solved, failed, or re-enqueued by its own
	// backtrack — so it is not enqueued a second time meanwhile; a
	// duplicate would issue the same query on another worker.
	running bool
	abduct  []Pred
	deps    map[string]bool // IDs of entries whose abduct references this one
	// chainIn is the longest dependency chain (in task time) leading to
	// this obligation; chainIn + own task time feeds the span estimate.
	chainIn time.Duration
}

// NewLearner builds a learner over a system and a mining oracle.
func NewLearner(sys *System, mine MineOracle, opts Options) *Learner {
	l := &Learner{
		sys:     sys,
		mine:    mine,
		opts:    opts,
		stats:   newStats(),
		init:    circuit.InitSnapshot(sys.Circuit),
		entries: make(map[string]*entry),
		failed:  make(map[string]bool),
	}
	if l.opts.Workers == 0 {
		l.opts.Workers = runtime.GOMAXPROCS(0)
	}
	if sys.cacheable() {
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

// targetSlice is what a target's queries are posed over: O_slice of
// Algorithm 1 and, with a cache bound, the key their answers live under.
type targetSlice struct {
	// regs is the union of the 1-step supports of the target's variables
	// (circuit.Support), sorted by name: the registers handed to the
	// mining oracle.
	regs []string
	// key is the canonical fingerprint of the cone of regs ∪ Vars()
	// (System.ConeCacheKey), or "" when no cache is bound. An equal key
	// pins the structure every answer under it can reference: the target's
	// next-state cone, every candidate's registers (names, widths, resets)
	// and the input interface.
	key string
}

// sliceFor derives (and memoizes) a target's slice and cone key.
func (l *Learner) sliceFor(target Pred) (*targetSlice, error) {
	if v, ok := l.sliceMemo.Load(target.ID()); ok {
		return v.(*targetSlice), nil
	}
	c := l.sys.Circuit
	vars := target.Vars()
	var idx []int32
	for _, v := range vars {
		ri := c.RegIndex(v)
		if ri < 0 {
			return nil, fmt.Errorf("circuit: unknown register %q", v)
		}
		idx = append(idx, c.Support(ri)...)
	}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	ts := &targetSlice{regs: make([]string, len(idx))}
	for k, ri := range idx {
		ts.regs[k] = c.Regs()[ri].Name
	}
	sort.Strings(ts.regs)
	if l.cache != nil {
		// A bound cache implies a cacheable system, so the key exists.
		ts.key, _ = l.sys.ConeCacheKey(append(slices.Clone(ts.regs), vars...))
	}
	l.sliceMemo.Store(target.ID(), ts)
	return ts, nil
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
// workers drain, the proof store is flushed — the
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
	for range l.opts.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.worker()
		}()
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

// interrupt initiates the cancellation protocol: flag the stop bit, which
// the workers and every in-flight query's solver poll, so CDCL searches
// abort at their next interrupt check; then record the interrupt marker so
// cond-waiting workers exit.
func (l *Learner) interrupt() {
	l.stop.Store(true)
	l.mu.Lock()
	if l.err == nil {
		l.err = errLearnInterrupted
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// finishPersist runs at Learn shutdown: it persists the run's appends when
// a proof store is bound, then sets the cache's footprint and the store's
// counters in Stats. The records were appended as they landed, so Persist
// is a cheap fsync; the store escalates to a full rewrite on its own when
// appends are disabled, degraded, or oversized.
func (l *Learner) finishPersist() {
	if l.cache == nil {
		return
	}
	var flushes, loads int64
	if l.pdb != nil {
		if err := l.pdb.Persist(); err == nil {
			flushes = 1
		}
		st := l.pdb.Stats()
		loads = st.ClausesLoaded + st.VerdictsLoaded + st.AbductsLoaded
	}
	c := l.cache.Counters()
	s := l.stats
	s.mu.Lock()
	defer s.mu.Unlock()
	s.CacheEntries, s.CacheBytes = c.Entries, c.ApproxBytes
	s.CacheDiskFlushes += flushes
	s.CacheDiskLoads = loads
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
	if e == nil || e.queued || e.running || e.solved || l.failed[id] {
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

// worker pulls obligations until the global fixpoint is reached.
func (l *Learner) worker() {
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
		e.running = true
		l.active++
		pred := e.pred
		l.mu.Unlock()

		err := l.runTask(pred)

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
func (l *Learner) runTask(pred Pred) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{PredID: pred.ID(), Value: r, Stack: debug.Stack()}
		}
	}()
	if faultinject.Enabled() && faultinject.Fire(faultinject.WorkerPanic) {
		panic("faultinject: scheduled worker panic")
	}
	return l.solveOne(pred)
}

// solveOne runs one H-Houdini task body: slice, mine, abduct, record.
func (l *Learner) solveOne(pred Pred) error {
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

	ts, err := l.sliceFor(pred)
	if err != nil {
		return err
	}
	cands, err := l.mine.Mine(pred, ts.regs)
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

	res, err := l.runAbduct(pred, live)
	if err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	id := pred.ID()
	e := l.entries[id]
	// An error return above leaves running set; the error ends the Learn.
	e.running = false
	if !res.ok {
		l.failLocked(id)
		return nil
	}
	// A member may have failed while we were solving; retry if so
	// (the soln ∩ P_fail check of Algorithm 1, line 3).
	for _, m := range res.preds {
		if l.failed[m.ID()] {
			l.stats.backtrack()
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

// runAbduct runs one abduction over the target's candidates. Candidates
// violated by the initial state are dropped first: s0 is always
// a positive example (Definition 4.8), so such predicates can never appear
// in an invariant — this keeps the learner sound even against mining
// oracles that do not fully honor Contract 2. The init-state verdicts are
// memoized per predicate ID (holdsAtInit), and the filter builds a fresh
// slice: the caller retains ownership of cands (mining oracles may hand
// out shared or cached slices, so filtering in place would corrupt them).
func (l *Learner) runAbduct(pred Pred, cands []Pred) (abductResult, error) {
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
	return l.abduct(pred, kept)
}

// failLocked marks a predicate unusable and partially backtracks: every
// memoized solution referencing it is invalidated and re-enqueued (§3.2.1
// — only the failure path is squashed; all other solutions are reused).
// Dependents are re-enqueued in sorted ID order, so the backtrack order —
// and with it a one-worker run — repeats exactly.
func (l *Learner) failLocked(id string) {
	if l.failed[id] {
		return
	}
	l.failed[id] = true
	e := l.entries[id]
	if e == nil {
		return
	}
	depIDs := make([]string, 0, len(e.deps))
	for depID := range e.deps {
		depIDs = append(depIDs, depID)
	}
	sort.Strings(depIDs)
	for _, depID := range depIDs {
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
			l.stats.backtrack()
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
