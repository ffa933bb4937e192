package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hhoudini/internal/faultinject"
	core "hhoudini/internal/hhoudini"
	"hhoudini/internal/veloct"
)

// Job kinds.
const (
	KindLearn      = "learn"      // verify a safe set, returning the full invariant
	KindVerify     = "verify"     // verify a safe set (result summary only)
	KindSynthesize = "synthesize" // solve the SISP from scratch
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobSpec is the POST /v1/jobs request body.
type JobSpec struct {
	// Kind is learn, verify or synthesize.
	Kind string `json:"kind"`
	// Design names the target: execstage|inorder|small|medium|large|mega,
	// OoO sizes optionally suffixed +dbg (the debug-counter variant).
	Design string `json:"design"`
	// Safe is the proposed safe set for learn/verify jobs.
	Safe []string `json:"safe,omitempty"`
	// Tenant namespaces every cache artifact the job produces; empty means
	// the shared "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Workers overrides the per-job learner parallelism (0 = server default).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS overrides the per-job deadline (0 = server default; capped
	// by the server's MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Seed overrides the example-generation seed (0 = server default).
	Seed int64 `json:"seed,omitempty"`
}

// maxTenantLen bounds tenant ids; validation keeps them printable so the
// cache-key namespace prefix ("ns:<tenant>\x02...") stays unambiguous.
const maxTenantLen = 64

// validTenant enforces the tenant-id alphabet: ASCII letters, digits,
// dot, dash, underscore.
func validTenant(t string) bool {
	if len(t) > maxTenantLen {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

// Job is one admitted unit of work. Identity fields are immutable after
// newJob; the mutable lifecycle state lives behind j.mu so HTTP reads
// never race the executor.
type Job struct {
	id      string
	kind    string
	design  string
	tenant  string
	safe    []string
	workers int
	timeout time.Duration
	seed    int64

	mu        sync.Mutex
	state     string
	queuedAt  time.Time
	startedAt time.Time
	doneAt    time.Time
	err       error
	result    *JobResult
	stats     *StatsView
}

// newJob validates a spec into a Job (not yet admitted: the server assigns
// id/state under its own lock).
func newJob(spec JobSpec, cfg Config) (*Job, error) {
	switch spec.Kind {
	case KindLearn, KindVerify, KindSynthesize:
	default:
		return nil, fmt.Errorf("unknown kind %q (want learn|verify|synthesize)", spec.Kind)
	}
	if spec.Design == "" {
		return nil, errors.New("design is required")
	}
	if _, err := designBuilder(spec.Design); err != nil {
		return nil, err
	}
	if spec.Kind != KindSynthesize && len(spec.Safe) == 0 {
		return nil, fmt.Errorf("%s jobs require a non-empty safe set", spec.Kind)
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if !validTenant(tenant) {
		return nil, fmt.Errorf("invalid tenant %q (≤%d chars of [A-Za-z0-9._-])", spec.Tenant, maxTenantLen)
	}
	timeout := cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if timeout > cfg.MaxTimeout {
		timeout = cfg.MaxTimeout
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = cfg.JobWorkers
	}
	seed := spec.Seed
	if seed == 0 {
		seed = cfg.Seed
	}
	safe := make([]string, 0, len(spec.Safe))
	for _, mn := range spec.Safe {
		if mn != "" {
			safe = append(safe, mn)
		}
	}
	return &Job{
		kind:    spec.Kind,
		design:  spec.Design,
		tenant:  tenant,
		safe:    safe,
		workers: workers,
		timeout: timeout,
		seed:    seed,
	}, nil
}

// jobOutcome is what the executor hands to finish().
type jobOutcome struct {
	state  string
	err    error
	result *JobResult
	stats  *StatsView
}

// resolve publishes a terminal state. First writer wins: a job the drain
// path canceled while an executor was still unwinding stays canceled.
func (j *Job) resolve(o jobOutcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		return
	}
	j.state = o.state
	j.err = o.err
	j.result = o.result
	j.stats = o.stats
	j.doneAt = time.Now()
}

// execute runs one job to a terminal state. The deadline context is
// created here, on the worker's stack, and threaded into LearnCtx via
// VerifyCtx/SynthesizeCtx — it is never stored (panicscope's rule, load-
// bearing for the drain protocol: cancellation must reach live solvers).
func (s *Server) execute(j *Job) {
	ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
	defer cancel()
	s.mu.Lock()
	s.cancels[j.id] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.cancels, j.id)
		s.mu.Unlock()
	}()

	if faultinject.Enabled() {
		// Chaos tier: a slow job widens the drain/deadline races; a failed
		// job must resolve cleanly without wedging its worker slot.
		faultinject.Sleep(faultinject.JobDelay)
		if err := faultinject.FireErr(faultinject.JobFail); err != nil {
			s.finish(j, jobOutcome{state: StateFailed, err: err})
			return
		}
	}

	a, err := s.analysisFor(j)
	if err != nil {
		s.finish(j, jobOutcome{state: StateFailed, err: err})
		return
	}
	switch j.kind {
	case KindLearn, KindVerify:
		res, err := a.VerifyCtx(ctx, j.safe)
		if err != nil {
			s.finish(j, outcomeForError(ctx, err))
			return
		}
		s.finish(j, jobOutcome{
			state:  StateDone,
			result: resultView(j.kind, res, nil),
			stats:  statsView(res.Stats),
		})
	case KindSynthesize:
		syn, err := a.SynthesizeCtx(ctx)
		if err != nil {
			s.finish(j, outcomeForError(ctx, err))
			return
		}
		var stats *StatsView
		var res *veloct.Result
		if syn.Result != nil {
			res = syn.Result
			stats = statsView(syn.Result.Stats)
		}
		s.finish(j, jobOutcome{
			state:  StateDone,
			result: resultView(j.kind, res, syn),
			stats:  stats,
		})
	default:
		s.finish(j, jobOutcome{state: StateFailed, err: fmt.Errorf("unknown kind %q", j.kind)})
	}
}

// outcomeForError classifies a learner error: context cancellation and
// deadline expiry are typed cancellations (the drain/deadline contract —
// every accepted job resolves), everything else is a failure.
func outcomeForError(ctx context.Context, err error) jobOutcome {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
		return jobOutcome{state: StateCanceled, err: err}
	}
	return jobOutcome{state: StateFailed, err: err}
}

// --- Wire views --------------------------------------------------------------

// JobResult is the kind-specific payload of a finished job.
type JobResult struct {
	// Proved reports whether an invariant was found (learn/verify) or the
	// synthesized set verified (synthesize).
	Proved bool `json:"proved"`
	// Reason explains a false Proved when known.
	Reason string `json:"reason,omitempty"`
	// InvariantSize is the predicate count of the learned invariant.
	InvariantSize int `json:"invariant_size,omitempty"`
	// Predicates lists the invariant's predicate IDs (learn jobs only —
	// the full invariant is the point of a learn job; verify only reports
	// the verdict).
	Predicates []string `json:"predicates,omitempty"`
	// Examples is the positive-example count backing the run.
	Examples int `json:"examples,omitempty"`
	// Safe is the verified (learn/verify) or synthesized safe set.
	Safe []string `json:"safe,omitempty"`
	// Unsafe lists instructions excluded by synthesis.
	Unsafe []string `json:"unsafe,omitempty"`
}

func resultView(kind string, res *veloct.Result, syn *veloct.Synthesis) *JobResult {
	out := &JobResult{}
	if res != nil {
		out.Proved = res.Invariant != nil
		out.Reason = res.Reason
		out.Examples = res.Examples
		out.Safe = append([]string(nil), res.Safe...)
		if res.Invariant != nil {
			out.InvariantSize = res.Invariant.Size()
			if kind == KindLearn {
				for _, p := range res.Invariant.Preds {
					out.Predicates = append(out.Predicates, p.ID())
				}
				sort.Strings(out.Predicates)
			}
		}
	}
	if syn != nil {
		out.Safe = append([]string(nil), syn.Safe...)
		out.Unsafe = append([]string(nil), syn.Unsafe...)
		sort.Strings(out.Safe)
		sort.Strings(out.Unsafe)
	}
	return out
}

// StatsView is the per-job learner instrumentation on the wire: the
// learner's counters, copied once when the job resolves.
type StatsView struct {
	core.Counters

	WallTimeMS int64 `json:"wall_time_ms"`

	// WarmFraction is the fraction of abduction queries answered from the
	// memo layers without solver work: (verdict hits + abduct hits) /
	// queries. The serve acceptance test asserts it ≥0.9 on a repeat pass.
	WarmFraction float64 `json:"warm_fraction"`
}

func statsView(st *core.Stats) *StatsView {
	if st == nil {
		return nil
	}
	snap := st.Snapshot()
	v := &StatsView{Counters: snap.Counters, WallTimeMS: snap.WallTime.Milliseconds()}
	if snap.Queries > 0 {
		v.WarmFraction = float64(snap.CacheVerdictHits+snap.CacheAbductHits) / float64(snap.Queries)
	}
	return v
}

// JobView is the GET /v1/jobs/{id} response body.
type JobView struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Design string `json:"design"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`

	QueuedAt  string `json:"queued_at"`
	StartedAt string `json:"started_at,omitempty"`
	DoneAt    string `json:"done_at,omitempty"`

	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	Stats  *StatsView `json:"stats,omitempty"`
}

// view snapshots the job for the wire.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.id,
		Kind:     j.kind,
		Design:   j.design,
		Tenant:   j.tenant,
		State:    j.state,
		QueuedAt: j.queuedAt.UTC().Format(time.RFC3339Nano),
		Result:   j.result,
		Stats:    j.stats,
	}
	if !j.startedAt.IsZero() {
		v.StartedAt = j.startedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.doneAt.IsZero() {
		v.DoneAt = j.doneAt.UTC().Format(time.RFC3339Nano)
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}
