// Package faultinject is the chaos-injection harness: a process-global set
// of named, test-only hook points compiled into the engine's hot paths at
// (almost) zero cost. Production code asks Enabled() — one atomic load,
// false for the whole life of a normal process — before consulting any
// specific point, so the disarmed overhead is a single predictable branch.
//
// The harness exists to *prove* the robustness story rather than assert it:
// the chaos test tier (TestChaos* across the repository, `make chaos`) arms
// these points to force solver Unknowns, fail proof-store writes, panic
// worker goroutines and stretch query latencies, then checks that the
// engine degrades — never corrupts, never deadlocks, never leaks
// goroutines. This mirrors how data-driven invariant learners treat solver
// timeouts and restarts as first-class events (Miltner et al.; Horn-ICE)
// instead of unreachable error paths.
//
// Concurrency: all state is guarded by one mutex; Fire/FireErr/Sleep are
// safe to call from any goroutine. Points are identified by the Point
// constants below; arming an unknown name is allowed (the engine simply
// never fires it), which keeps the package decoupled from its callers.
//
// The package is intended for tests only. Nothing enforces that, but every
// armed point should be paired with a deferred Reset.
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Point names compiled into the engine. Each constant documents the exact
// hook site so chaos tests and production code cannot drift apart silently.
const (
	// SolverUnknown makes sat.Solver.Solve return Unknown without
	// searching — the "solver gave up" event, which fails a Learn with an
	// error naming the query's target.
	SolverUnknown = "sat.solve.unknown"
	// ProofDBWrite fails the crash-safe atomic rewrite in
	// internal/proofdb (temp-file write/fsync/rename path) with the armed
	// error: the store must degrade to its previous on-disk contents.
	ProofDBWrite = "proofdb.atomic-write"
	// JournalAppend fails one delta append to the proof store file in
	// internal/proofdb with the armed error: the delta is lost from the
	// file (not the in-memory model), and a persistent streak of failures
	// must degrade the store to rewrite-only mode — the learner never
	// observes the fault.
	JournalAppend = "proofdb.journal.append"
	// JournalSync fails one fsync of the appended lines: the affected
	// records stay readable (page cache) but are not yet durable; Persist
	// must fall back to a full rewrite.
	JournalSync = "proofdb.journal.sync"
	// WorkerPanic panics inside a learner worker's task body (under the
	// designated recover boundary): the Learn must fail with a
	// stack-carrying error while the process survives.
	WorkerPanic = "hhoudini.worker.panic"
	// QueryDelay stretches each abduction query by the armed Delay,
	// widening the cancellation races the chaos tier exercises.
	QueryDelay = "hhoudini.query.delay"
	// JobDelay stretches one accepted service job by the armed Delay
	// before it starts executing — the HTTP-level slow-job fault. It
	// widens drain/cancellation races: a job can sit admitted-but-unrun
	// while SIGTERM or its own deadline arrives.
	JobDelay = "serve.job.delay"
	// JobFail fails one accepted service job with the armed error at the
	// execution boundary (after dequeue, before the learner runs): the
	// job must resolve as failed — never wedge the worker or leak its
	// slot — and the daemon must keep serving.
	JobFail = "serve.job.fail"
)

// ErrInjected is the default error delivered by error-type points armed
// without an explicit Spec.Err.
var ErrInjected = errors.New("faultinject: injected fault")

// Spec arms one hook point.
type Spec struct {
	// Skip lets this many matching events pass through before firing.
	Skip int
	// Count is the number of events that fire after Skip; 0 arms a single
	// fire, negative fires forever (until Reset).
	Count int
	// Delay is the injected latency for delay points (Sleep).
	Delay time.Duration
	// Err is the injected error for error points (FireErr); nil means
	// ErrInjected.
	Err error
}

type point struct {
	skip  int
	count int // remaining fires; negative = unlimited
	delay time.Duration
	err   error
	fired int64
}

// enabled is the fast-path gate: non-zero iff at least one point has been
// armed since the last Reset. Hot paths load it once and skip the mutex
// entirely in the (universal, outside chaos tests) disarmed case.
var enabled atomic.Int32

var reg = struct {
	sync.Mutex
	points map[string]*point
}{points: make(map[string]*point)}

// Enabled reports whether any point is armed. It is the only call
// production code makes on its hot paths when the harness is idle.
func Enabled() bool { return enabled.Load() != 0 }

// Arm configures a hook point. Re-arming an already-armed point replaces
// its spec but preserves its fired counter.
func Arm(name string, spec Spec) {
	count := spec.Count
	if count == 0 {
		count = 1
	}
	reg.Lock()
	defer reg.Unlock()
	prev := reg.points[name]
	p := &point{skip: spec.Skip, count: count, delay: spec.Delay, err: spec.Err}
	if prev != nil {
		p.fired = prev.fired
	}
	reg.points[name] = p
	enabled.Store(1)
}

// Reset disarms every point and clears all counters. Chaos tests defer it.
func Reset() {
	reg.Lock()
	defer reg.Unlock()
	reg.points = make(map[string]*point)
	enabled.Store(0)
}

// Fired returns how many times the named point has fired since it was
// first armed (surviving re-Arms, cleared by Reset).
func Fired(name string) int64 {
	reg.Lock()
	defer reg.Unlock()
	if p := reg.points[name]; p != nil {
		return p.fired
	}
	return 0
}

// fire consumes one event at the point and reports whether it fires,
// returning the point for access to its payload. Callers hold no lock.
func fire(name string) (*point, bool) {
	reg.Lock()
	defer reg.Unlock()
	p := reg.points[name]
	if p == nil {
		return nil, false
	}
	if p.skip > 0 {
		p.skip--
		return nil, false
	}
	if p.count == 0 {
		return nil, false // exhausted; stays registered for Fired()
	}
	if p.count > 0 {
		p.count--
	}
	p.fired++
	return p, true
}

// Fire consumes one event at the named point and reports whether the fault
// fires. Callers must check Enabled() first (cheaply) on hot paths.
func Fire(name string) bool {
	_, ok := fire(name)
	return ok
}

// FireErr consumes one event and returns the injected error when the point
// fires, nil otherwise.
func FireErr(name string) error {
	p, ok := fire(name)
	if !ok {
		return nil
	}
	if p.err != nil {
		return p.err
	}
	return ErrInjected
}

// Sleep consumes one event and blocks for the armed delay when the point
// fires (no-op otherwise).
func Sleep(name string) {
	p, ok := fire(name)
	if !ok || p.delay <= 0 {
		return
	}
	time.Sleep(p.delay)
}
