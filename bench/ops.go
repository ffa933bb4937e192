package main

// One verdict operation, two ways: the untraced path calls Analysis.Verify
// / Synthesize exactly as cmd/veloct does and is what every end-to-end
// number is measured on; the traced path replaces the call with its public
// parts, one span each, and is what the per-layer numbers come from.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	core "hhoudini/internal/hhoudini"
	"hhoudini/internal/miter"
	"hhoudini/internal/proofdb"
	"hhoudini/internal/veloct"
)

// opTimeout bounds one operation: a hang is a failed operation, not a
// stuck run.
const opTimeout = 120 * time.Second

const (
	kindVerify     = "verify"
	kindSynthesize = "synthesize"
)

// opSpec names one verdict operation and its known answer.
type opSpec struct {
	kind   string
	design string // execstage|inorder|small|medium|large|mega, OoO sizes optionally +dbg
	// unsafe makes a verify operation propose the family's safe set plus
	// its mustFail instruction; the answer must then be None.
	unsafe bool
}

func (s opSpec) label() string {
	l := s.kind + ":" + s.design
	if s.unsafe {
		l += "+" + mustFail[family(s.design)]
	}
	return l
}

func (s opSpec) proposal() []string {
	if s.unsafe {
		return unsafeProposal(s.design)
	}
	return safeSet(s.design)
}

// buildDesign resolves the design names the service layer accepts.
func buildDesign(name string) (*design.Target, error) {
	switch name {
	case "execstage":
		return design.NewExecStage(design.ExecStageConfig{})
	case "inorder":
		return design.NewInOrder()
	}
	base, dbg := strings.CutSuffix(name, "+dbg")
	variants := map[string]design.OoOVariant{
		"small": design.SmallOoO, "medium": design.MediumOoO,
		"large": design.LargeOoO, "mega": design.MegaOoO,
	}
	v, ok := variants[base]
	if !ok {
		return nil, fmt.Errorf("unknown design %q", name)
	}
	if dbg {
		v.Name += "+dbg"
		v.DebugCounter = true
	}
	return design.NewOoO(v)
}

// learnCounters is the learner instrumentation of one operation, copied
// out of hhoudini.Stats once the operation has returned.
type learnCounters struct {
	tasks, backtracks, queries               int64
	encodedClauses, solverAllocs, poolReuses int64
	verdictHits, abductHits, diskHits        int64
	shareImported, retries, conflicts        int64
	cacheBytes                               int64
	learnS, queryS, queryP50, queryP95       float64
	spanS, workS                             float64
}

func countersOf(st *core.Stats) learnCounters {
	if st == nil {
		return learnCounters{}
	}
	snap := st.Snapshot()
	return learnCounters{
		tasks: snap.Tasks, backtracks: snap.Backtracks, queries: snap.Queries,
		encodedClauses: snap.EncodedClauses, solverAllocs: snap.SolverAllocs, poolReuses: snap.PoolReuses,
		verdictHits: snap.CacheVerdictHits, abductHits: snap.CacheAbductHits, diskHits: snap.CacheDiskHits,
		shareImported: snap.ShareImported, retries: snap.QueryRetries, conflicts: snap.SolverConflicts,
		cacheBytes: snap.CacheBytes,
		learnS:     snap.WallTime.Seconds(),
		queryS:     snap.TotalQueryTime.Seconds(),
		queryP50:   st.QueryTimePercentile(0.50).Seconds(),
		queryP95:   st.QueryTimePercentile(0.95).Seconds(),
		spanS:      snap.Span.Seconds(),
		workS:      snap.TotalTaskTime.Seconds(),
	}
}

// add folds one operation's counters into a round's: counts and times sum,
// the cache footprint keeps its largest value, and the percentiles — which
// do not add — are left alone.
func (c *learnCounters) add(o learnCounters) {
	c.tasks += o.tasks
	c.backtracks += o.backtracks
	c.queries += o.queries
	c.encodedClauses += o.encodedClauses
	c.solverAllocs += o.solverAllocs
	c.poolReuses += o.poolReuses
	c.verdictHits += o.verdictHits
	c.abductHits += o.abductHits
	c.diskHits += o.diskHits
	c.shareImported += o.shareImported
	c.retries += o.retries
	c.conflicts += o.conflicts
	c.cacheBytes = max(c.cacheBytes, o.cacheBytes)
	c.learnS += o.learnS
	c.queryS += o.queryS
	c.spanS += o.spanS
	c.workS += o.workS
}

// recordsLoaded is how many records a store restored from disk at open.
func recordsLoaded(st proofdb.Stats) float64 {
	return float64(st.ClausesLoaded + st.VerdictsLoaded + st.AbductsLoaded)
}

// auditItem is a learned invariant kept for the audit that runs after the
// clock stops.
type auditItem struct {
	label string
	a     *veloct.Analysis
	res   *veloct.Result
}

// opResult is the outcome of one operation.
type opResult struct {
	spec opSpec
	wall float64
	// err marks a failed operation: a wrong, errored or timed-out verdict.
	err      error
	learn    learnCounters
	examples int
	// mineCalls/minedPreds count the mining oracle's work (traced path only:
	// they are read off the wrapped oracle).
	mineCalls, minedPreds int64
	// store is the bound proof store's counters, read before it is closed.
	store proofdb.Stats
	audit *auditItem
	job   *jobTiming // serve-mix only
}

// opEnv is what an operation runs under.
type opEnv struct {
	seed      int64
	workers   int
	cacheDir  string            // "" = no proof store
	keepStore bool              // leave the store open when the operation ends (priming)
	cache     *core.VerifyCache // nil = a fresh cache, as a new process has
	tenant    string            // cache namespace ("" outside serve-mix)
	tr        *tracer           // nil = untraced
	round     int
	// shared, when set, is the design's analysis as an earlier operation
	// built it; the operation runs on a copy carrying its own options, which
	// is how the server shares one analysis per design across jobs.
	shared *veloct.Analysis
}

func (e opEnv) options() veloct.Options {
	o := veloct.DefaultOptions()
	o.Learner.Workers = e.workers
	o.Learner.Cache = e.cache
	if o.Learner.Cache == nil {
		o.Learner.Cache = core.NewVerifyCache()
	}
	o.Learner.CacheDir = e.cacheDir
	o.Examples.Seed = e.seed
	o.CacheNamespace = e.tenant
	return o
}

// reuse returns the operation's copy of the shared analysis, nil without one.
func (e opEnv) reuse() *veloct.Analysis {
	if e.shared == nil {
		return nil
	}
	a := *e.shared
	a.Opts = e.options()
	return &a
}

// runOp executes one operation from design construction to verdict (and,
// with a proof store, to the store's close), checks the verdict against
// expected.go, and returns what it cost.
func runOp(spec opSpec, e opEnv) opResult {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	res := opResult{spec: spec}
	start := time.Now()
	if e.tr == nil {
		res.err = runPlain(ctx, spec, e, &res)
	} else {
		res.err = runTraced(ctx, spec, e, &res)
	}
	res.wall = time.Since(start).Seconds()
	if res.err != nil && e.cacheDir != "" {
		// The operation gave up with its store still bound; the next
		// operation must not inherit it.
		core.CrashProofDBs()
	}
	return res
}

// closeStore reads the store's counters and closes it, which is where a
// CLI run with -persist ends.
func closeStore(e opEnv, res *opResult) error {
	if e.cacheDir == "" || e.keepStore {
		return nil
	}
	res.store, _ = core.ProofDBStatsFor(e.cacheDir)
	return core.CloseProofDBs()
}

func runPlain(ctx context.Context, spec opSpec, e opEnv, res *opResult) error {
	a := e.reuse()
	if a == nil {
		tgt, err := buildDesign(spec.design)
		if err != nil {
			return err
		}
		if a, err = veloct.New(tgt, e.options()); err != nil {
			return err
		}
	}
	var verdict error
	switch spec.kind {
	case kindVerify:
		r, err := a.VerifyCtx(ctx, spec.proposal())
		if err != nil {
			return err
		}
		verdict = res.record(a, r, !spec.unsafe)
	case kindSynthesize:
		syn, err := a.SynthesizeCtx(ctx)
		if err != nil {
			return err
		}
		verdict = checkSynthesis(spec.design, syn.Safe, syn.Unsafe)
		if err := res.record(a, syn.Result, true); verdict == nil {
			verdict = err
		}
	default:
		return fmt.Errorf("unknown operation kind %q", spec.kind)
	}
	if err := closeStore(e, res); err != nil {
		return err
	}
	return verdict
}

// record copies a verification result into the operation result and
// compares its verdict with the expected one.
func (res *opResult) record(a *veloct.Analysis, r *veloct.Result, wantProved bool) error {
	if r == nil {
		return errors.New("no verification result")
	}
	res.learn = countersOf(r.Stats)
	res.examples = r.Examples
	if r.Invariant != nil {
		res.audit = &auditItem{label: res.spec.label(), a: a, res: r}
	}
	return checkVerdict(res.spec.design, r.Invariant != nil, wantProved)
}

// timingMiner wraps the mining oracle handed to the learner: one span and
// one count per call.
type timingMiner struct {
	inner  core.MineOracle
	tr     *tracer
	parent int
	round  int
	op     string
	calls  atomic.Int64
	preds  atomic.Int64
}

func (m *timingMiner) Mine(target core.Pred, slice []string) ([]core.Pred, error) {
	id := m.tr.begin("veloct.mine", m.parent, m.round, m.op)
	preds, err := m.inner.Mine(target, slice)
	m.tr.end(id)
	m.calls.Add(1)
	m.preds.Add(int64(len(preds)))
	return preds, err
}

// runTraced is runPlain with Verify/Synthesize taken apart into the public
// calls they are made of. Synthesis is followed only down its first
// verification: on the benchmark's designs simulation finds every unsafe
// instruction, so a verification that answers None is a failed operation
// here, not the start of an attribution loop.
func runTraced(ctx context.Context, spec opSpec, e opEnv, res *opResult) error {
	tr, op := e.tr, spec.label()
	root := tr.begin("op", -1, e.round, op)
	defer tr.end(root)
	timed := func(name string, fn func()) {
		id := tr.begin(name, root, e.round, op)
		fn()
		tr.end(id)
	}

	var err error
	a := e.reuse()
	if a == nil {
		var tgt *design.Target
		var prod *miter.Product
		timed("design.build", func() { tgt, err = buildDesign(spec.design) })
		if err != nil {
			return err
		}
		timed("miter.build", func() { prod, err = miter.Build(tgt.Circuit) })
		if err != nil {
			return err
		}
		timed("circuit.supports", prod.Circuit.WarmSupports)
		a = &veloct.Analysis{Target: tgt, Product: prod, Opts: e.options()}
	}

	proposal := spec.proposal()
	var witnessed []string
	if spec.kind == kindSynthesize {
		proposal = nil
		for _, mn := range a.Target.CandidateSafe {
			var bad bool
			timed("veloct.simunsafe", func() { bad, err = a.SimUnsafe(mn, 4) })
			if err != nil {
				return err
			}
			if bad {
				witnessed = append(witnessed, mn)
			} else {
				proposal = append(proposal, mn)
			}
		}
	}

	r := &veloct.Result{Safe: proposal}
	var miner *veloct.Miner
	timed("veloct.examples", func() {
		var examples []circuit.Snapshot
		miner, examples, err = a.BuildMinerCtx(ctx, proposal)
		r.Examples = len(examples)
	})
	var unsafe veloct.ErrUnsafe
	switch {
	case errors.As(err, &unsafe):
		r.Reason = unsafe.Error()
	case err != nil:
		return err
	default:
		var sys *core.System
		timed("veloct.system", func() { sys = a.System(proposal) })
		wrapped := &timingMiner{inner: miner, tr: tr, round: e.round, op: op}
		// The first learner to name a cache directory opens the store:
		// snapshot load, journal replay and the restore into the cache all
		// happen inside NewLearner.
		name := "hhoudini.new_learner"
		if e.cacheDir != "" {
			if _, bound := core.ProofDBStatsFor(e.cacheDir); !bound {
				name = "proofdb.open"
			}
		}
		var learner *core.Learner
		timed(name, func() { learner = core.NewLearner(sys, wrapped, a.Opts.Learner) })
		wrapped.parent = tr.begin("hhoudini.learn", root, e.round, op)
		r.Invariant, err = learner.LearnCtx(ctx, a.Targets())
		tr.end(wrapped.parent)
		if err != nil {
			return err
		}
		r.Stats = learner.Stats()
		res.mineCalls, res.minedPreds = wrapped.calls.Load(), wrapped.preds.Load()
	}

	verdict := res.record(a, r, !spec.unsafe)
	if spec.kind == kindSynthesize && verdict == nil {
		verdict = checkSynthesis(spec.design, proposal, witnessed)
	}
	if e.cacheDir != "" && !e.keepStore {
		timed("proofdb.close", func() { err = closeStore(e, res) })
		if err != nil {
			return err
		}
	}
	return verdict
}
