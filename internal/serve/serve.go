// Package serve is the multi-tenant invariant-learning service: a
// long-running daemon core that multiplexes many concurrent learning
// sessions over the shared verification machinery (VerifyCache, proofdb)
// that PRs 1–7 built for one-shot CLI processes.
//
// The architecture is a bounded job queue in front of a worker-pool
// executor:
//
//   - POST /v1/jobs admits a learn / verify / synthesize job, subject to
//     admission control: a global queue-depth cap plus a per-tenant cap,
//     each rejection a 429 with Retry-After. Per-tenant sub-queues drained
//     round-robin give fair-share scheduling — a tenant flooding the queue
//     fills only its own sub-queue and cannot starve the others.
//   - Each accepted job runs under its own deadline-bearing context
//     threaded into LearnCtx (the PR 5 budget/cancellation machinery), so
//     a wedged or oversized job degrades into a typed cancellation, never
//     a stuck worker.
//   - Tenant isolation in the cache layer is by key construction, not by
//     separate caches: the tenant id is folded into every cache identity
//     (System.Namespace → CacheKey/ConeCacheKey), so no verdict or abduct
//     can cross a tenant boundary, while
//     within one tenant the full warm-transfer story (including
//     cross-design cone transfer) applies unchanged.
//   - Graceful drain (SIGTERM in cmd/veloctd): stop admitting, let
//     in-flight and queued jobs finish within the drain grace, cancel
//     whatever remains (each resolves with a typed cancellation), flush
//     the proof stores, exit.
//
// Everything is stdlib: net/http for transport, sync.Cond for the queue.
package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"hhoudini/internal/design"
	core "hhoudini/internal/hhoudini"
	"hhoudini/internal/veloct"
)

// Config tunes one Server. The zero value is usable: every field below
// documents its default.
type Config struct {
	// Workers is the executor pool size — the in-flight job cap. Default 2.
	Workers int
	// JobWorkers is the default per-job learner parallelism
	// (LearnerOptions.Workers) when a job spec does not choose its own.
	// Default 1.
	JobWorkers int
	// MaxQueued is the global queued-job cap; admission beyond it is a 429.
	// Default 64.
	MaxQueued int
	// MaxQueuedPerTenant caps one tenant's sub-queue — the fair-share
	// backstop that keeps a flooding tenant from occupying the whole global
	// queue. Default 8.
	MaxQueuedPerTenant int
	// DefaultTimeout is the per-job deadline when the spec omits one.
	// Default 2m.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-job deadline a spec may request. Default 10m.
	MaxTimeout time.Duration
	// RetryAfter is the Retry-After hint attached to 429 responses.
	// Default 1s.
	RetryAfter time.Duration
	// CacheDir, when non-empty, binds the verification cache to a
	// persistent proof store (LearnerOptions.CacheDir semantics); Drain
	// flushes it via CloseProofDBs.
	CacheDir string
	// Cache overrides the server-private verification cache (tests).
	Cache *core.VerifyCache
	// Seed is the default example-generation seed when the spec omits one.
	// Default 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.MaxQueuedPerTenant <= 0 {
		c.MaxQueuedPerTenant = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Cache == nil {
		c.Cache = core.NewVerifyCache()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Server is the service core: job registry, fair-share queue, executor
// pool, and the shared per-process verification cache all jobs run over.
// Construct with New, expose over HTTP with Handler, stop with Drain (or
// Close for tests).
type Server struct {
	cfg   Config
	cache *core.VerifyCache
	start time.Time

	mu   sync.Mutex
	cond *sync.Cond // signals queue activity and lifecycle changes

	jobs    map[string]*Job
	queues  map[string][]*Job // tenant → FIFO sub-queue
	ring    []string          // round-robin order over tenants with queued work
	rrNext  int
	queued  int
	running int
	seq     int64

	// cancels holds the CancelFunc of every in-flight job so drain can
	// cut the grace period short. (The contexts themselves are never
	// stored — they live on worker stacks, per the panicscope rule.)
	cancels map[string]context.CancelFunc

	draining bool
	closed   bool

	// Admission / lifecycle counters (under mu; read via StatsPayload).
	accepted     int64
	rejectedBusy int64 // 429
	rejectedGone int64 // 503 (draining/closed)
	done         int64
	failed       int64
	canceled     int64

	// analyses caches one base Analysis per design name: the miter product
	// is read-only at learning time, so tenant-specific copies (differing
	// only in Options) all share it.
	analysisMu sync.Mutex
	analyses   map[string]*veloct.Analysis

	wg sync.WaitGroup
}

// New builds a Server and starts its executor pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    cfg.Cache,
		start:    time.Now(),
		jobs:     make(map[string]*Job),
		queues:   make(map[string][]*Job),
		cancels:  make(map[string]context.CancelFunc),
		analyses: make(map[string]*veloct.Analysis),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Cache returns the verification cache all of this server's jobs share.
func (s *Server) Cache() *core.VerifyCache { return s.cache }

// --- Admission + fair-share queue -------------------------------------------

// submit validates a spec and either enqueues a job or rejects it.
// Rejections carry the HTTP status the transport should speak: 429 when
// full (retry later), 503 when draining (this instance is going away).
func (s *Server) submit(spec JobSpec) (*Job, *admissionError) {
	j, err := newJob(spec, s.cfg)
	if err != nil {
		return nil, &admissionError{status: 400, msg: err.Error()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		s.rejectedGone++
		return nil, &admissionError{status: 503, msg: "server is draining"}
	}
	if s.queued >= s.cfg.MaxQueued {
		s.rejectedBusy++
		return nil, &admissionError{status: 429, msg: "job queue is full", retryAfter: s.cfg.RetryAfter}
	}
	if len(s.queues[j.tenant]) >= s.cfg.MaxQueuedPerTenant {
		s.rejectedBusy++
		return nil, &admissionError{
			status:     429,
			msg:        fmt.Sprintf("tenant %q queue is full", j.tenant),
			retryAfter: s.cfg.RetryAfter,
		}
	}
	s.seq++
	j.id = fmt.Sprintf("j%08d", s.seq)
	j.state = StateQueued
	j.queuedAt = time.Now()
	s.jobs[j.id] = j
	if len(s.queues[j.tenant]) == 0 {
		s.ring = append(s.ring, j.tenant)
	}
	s.queues[j.tenant] = append(s.queues[j.tenant], j)
	s.queued++
	s.accepted++
	s.cond.Signal()
	return j, nil
}

// popLocked removes the next job under round-robin tenant order. Caller
// holds s.mu. Returns nil when every sub-queue is empty.
func (s *Server) popLocked() *Job {
	for len(s.ring) > 0 {
		if s.rrNext >= len(s.ring) {
			s.rrNext = 0
		}
		tenant := s.ring[s.rrNext]
		q := s.queues[tenant]
		if len(q) == 0 {
			// Tenant drained; drop it from the ring without advancing, so
			// the next tenant shifts into this slot.
			s.ring = append(s.ring[:s.rrNext], s.ring[s.rrNext+1:]...)
			delete(s.queues, tenant)
			continue
		}
		j := q[0]
		s.queues[tenant] = q[1:]
		if len(s.queues[tenant]) == 0 {
			s.ring = append(s.ring[:s.rrNext], s.ring[s.rrNext+1:]...)
			delete(s.queues, tenant)
		} else {
			s.rrNext++
		}
		s.queued--
		return j
	}
	return nil
}

// job looks a job up by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// --- Executor ----------------------------------------------------------------

// worker is one executor goroutine: it pulls jobs off the fair-share queue
// until the server closes (or drains dry) and runs each under its own
// deadline context.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.execute(j)
	}
}

// next blocks until a job is available, the server closes, or a drain
// leaves the queue empty; nil means the worker should exit.
func (s *Server) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if j := s.popLocked(); j != nil {
			j.mu.Lock()
			j.state = StateRunning
			j.startedAt = time.Now()
			j.mu.Unlock()
			s.running++
			return j
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// finish resolves a job and releases its executor slot.
func (s *Server) finish(j *Job, outcome jobOutcome) {
	j.resolve(outcome)
	s.mu.Lock()
	s.running--
	switch outcome.state {
	case StateDone:
		s.done++
	case StateCanceled:
		s.canceled++
	default:
		s.failed++
	}
	s.cond.Broadcast() // wake Drain waiters and idle workers
	s.mu.Unlock()
}

// --- Analysis resolution -----------------------------------------------------

// designBuilder resolves a design name to a deferred constructor without
// building anything — admission validates names cheaply; the (expensive)
// build happens once, in baseAnalysis. OoO sizes accept a "+dbg" suffix
// selecting the DebugCounter variant (the cross-edit cone-transfer pair
// from the cone-cache work: same verification cones, different whole-
// circuit fingerprint).
func designBuilder(name string) (func() (*design.Target, error), error) {
	base := strings.ToLower(strings.TrimSpace(name))
	dbg := strings.HasSuffix(base, "+dbg")
	base = strings.TrimSuffix(base, "+dbg")
	var v design.OoOVariant
	switch base {
	case "execstage":
		if dbg {
			return nil, fmt.Errorf("design %q: +dbg applies to OoO variants only", name)
		}
		return func() (*design.Target, error) { return design.NewExecStage(design.ExecStageConfig{}) }, nil
	case "inorder", "rocket":
		if dbg {
			return nil, fmt.Errorf("design %q: +dbg applies to OoO variants only", name)
		}
		return design.NewInOrder, nil
	case "small":
		v = design.SmallOoO
	case "medium":
		v = design.MediumOoO
	case "large":
		v = design.LargeOoO
	case "mega":
		v = design.MegaOoO
	default:
		return nil, fmt.Errorf("unknown design %q (want execstage|inorder|small|medium|large|mega, OoO sizes optionally +dbg)", name)
	}
	if dbg {
		v.Name += "+dbg"
		v.DebugCounter = true
	}
	return func() (*design.Target, error) { return design.NewOoO(v) }, nil
}

// baseAnalysis returns the design's shared Analysis, building it on first
// use. The product circuit inside is immutable during learning, so one
// instance serves every tenant and every concurrent job.
func (s *Server) baseAnalysis(designName string) (*veloct.Analysis, error) {
	key := strings.ToLower(strings.TrimSpace(designName))
	s.analysisMu.Lock()
	defer s.analysisMu.Unlock()
	if a, ok := s.analyses[key]; ok {
		return a, nil
	}
	build, err := designBuilder(key)
	if err != nil {
		return nil, err
	}
	tgt, err := build()
	if err != nil {
		return nil, err
	}
	a, err := veloct.New(tgt, veloct.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s.analyses[key] = a
	return a, nil
}

// analysisFor derives the per-job Analysis: a value copy of the design's
// base analysis (sharing the product circuit) with the job's tenant
// namespace, seed and learner options applied. The tenant id lands in
// System.Namespace, which prefixes every cache key this job produces —
// the whole tenant-isolation argument lives in that key discipline.
func (s *Server) analysisFor(j *Job) (*veloct.Analysis, error) {
	base, err := s.baseAnalysis(j.design)
	if err != nil {
		return nil, err
	}
	a := *base // shallow copy: shares Target and Product, owns Opts
	a.Opts.CacheNamespace = j.tenant
	a.Opts.Examples.Seed = j.seed
	a.Opts.Learner.Workers = j.workers
	a.Opts.Learner.Cache = s.cache
	a.Opts.Learner.CacheDir = s.cfg.CacheDir
	return &a, nil
}

// --- Lifecycle ---------------------------------------------------------------

// Drain performs the graceful-shutdown protocol: stop admitting (POST and
// readyz turn 503), let queued and in-flight jobs finish until ctx
// expires, then cancel the stragglers (each resolves with a typed
// cancellation), wait for the executor pool to exit, and flush the
// persistent proof stores. Idempotent; concurrent calls all block until
// the drain completes.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	// Phase 1: grace. Wait for the backlog to resolve on its own.
	for {
		s.mu.Lock()
		idle := s.queued == 0 && s.running == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			s.cancelBacklog()
			// Phase 2: cancellation is reliable (LearnCtx interrupts its
			// solvers), so this wait terminates; poll until the pool is idle.
			for {
				s.mu.Lock()
				idle := s.queued == 0 && s.running == 0
				s.mu.Unlock()
				if idle {
					break
				}
				//hhlint:ignore ctxflow ctx is already cancelled in this branch; solver cancellation is reliable, so the poll is bounded
				time.Sleep(5 * time.Millisecond)
			}
		case <-time.After(5 * time.Millisecond):
			continue
		}
		break
	}

	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()

	if s.cfg.CacheDir != "" {
		return core.CloseProofDBs()
	}
	return nil
}

// cancelBacklog fails every still-queued job with a typed cancellation and
// fires the CancelFunc of every in-flight one.
func (s *Server) cancelBacklog() {
	s.mu.Lock()
	var stranded []*Job
	for {
		j := s.popLocked()
		if j == nil {
			break
		}
		stranded = append(stranded, j)
	}
	cancels := make([]context.CancelFunc, 0, len(s.cancels))
	for _, c := range s.cancels {
		cancels = append(cancels, c)
	}
	s.canceled += int64(len(stranded))
	s.mu.Unlock()

	for _, j := range stranded {
		j.resolve(jobOutcome{state: StateCanceled, err: context.Canceled})
	}
	for _, c := range cancels {
		c()
	}
}

// Close force-stops the server: a Drain with no grace. Tests use it.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Drain(ctx)
}

// admissionError is a rejection with its HTTP shape attached.
type admissionError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *admissionError) Error() string { return e.msg }
