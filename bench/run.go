package main

// The harness: setup, one untimed warm-up round, timed rounds, and — after
// the clock has stopped — the audit of every invariant of the last round.

import (
	"fmt"
	"os"
	"time"
)

const (
	// minRounds is the floor on timed rounds however short the run. It is
	// also the round after which peak_rss_mb is read: how many rounds follow
	// depends on the host's speed, and a high-water mark only rises with them
	// (serve-mix's cache gains two cold tenants a round, ~14 MB), so a reading
	// at exit would turn a speed-up into a memory regression.
	minRounds = 5
	// scratchParent is where a run makes, and removes, its scratch directory:
	// inside the checkout, next to the built binary.
	scratchParent = ".bench_build"
	// warmupRound and replayRound are the round indexes of the spans and
	// operations that are not part of a timed round.
	warmupRound = -1
	replayRound = -2
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64 // timed rounds are started until this much time is on the clock
	rounds   int     // >0 fixes the number of timed rounds instead
	trace    bool
	spansOut string // traced run: also write the spans to this file
	scratch  string // parent of the run's scratch directory: scratchParent, except in tests
	// probeDesign is the design the circuit probes run on: mega, except in the
	// package's own tests.
	probeDesign string
}

// runData is everything one run measured.
type runData struct {
	cfg     config
	workers int
	// storeDir is the workload's proof store as setup left it; "" when the
	// workload has none.
	storeDir string
	setupS   float64
	warmup   roundData
	rounds   []roundData
	replay   []opResult
	peakRSS  float64
	rtStart  runtimeCounters
	rtEnd    runtimeCounters
	auditS   float64
	spans    []span
	probes   map[string]float64
	serve    *serveWorkload // serve-mix only
	// problems are run-level failures that are not a wrong verdict: a failed
	// audit, a leak after drain, a traced operation with unexplained time.
	problems []string
}

// ops returns every operation the run attempted.
func (rd *runData) ops() []opResult {
	out := append([]opResult(nil), rd.warmup.ops...)
	for _, r := range rd.rounds {
		out = append(out, r.ops...)
	}
	return append(out, rd.replay...)
}

// dropAudits releases a round's invariants — and with them each
// operation's Analysis and VerifyCache, solver pools included — once the
// round is known not to be the last: a CLI process's cache dies with it.
func dropAudits(r *roundData) {
	for i := range r.ops {
		r.ops[i].audit = nil
	}
}

// runWorkload executes one run of one workload.
func runWorkload(cfg config) (*runData, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.scratch, "run-"+cfg.workload+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	env := &runEnv{seed: cfg.seed, scratch: scratch}
	w := def.new()
	rd := &runData{cfg: cfg, workers: w.workers()}
	if sw, ok := w.(*serveWorkload); ok {
		rd.serve = sw
	}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}

	if err := w.setup(env); err != nil {
		return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
	}
	rd.storeDir = w.storeDir()
	// The warm-up round grows the heap, faults pages in and fills lazy
	// memos; on the sandbox it runs ~15% slower than the rounds after it.
	rd.warmup = w.round(env, warmupRound, nil)
	dropAudits(&rd.warmup)

	var onClock float64
	for i := 0; ; i++ {
		if cfg.rounds > 0 {
			if i >= cfg.rounds {
				break
			}
		} else if i >= minRounds && onClock >= cfg.seconds {
			break
		}
		// A traced run alternates traced and untraced rounds, so the tracing
		// overhead is measured within one process.
		var roundTracer *tracer
		if tr != nil && i%2 == 0 {
			roundTracer = tr
		}
		if i > 0 {
			dropAudits(&rd.rounds[i-1])
		}
		settle()
		if i == 0 {
			rd.setupS = time.Since(processStart).Seconds()
			rd.rtStart = readRuntime()
		}
		round := w.round(env, i, roundTracer)
		onClock += round.wall
		rd.rounds = append(rd.rounds, round)
		rd.rtEnd = readRuntime()
		if len(rd.rounds) <= minRounds { // later rounds do not move the reading
			if rd.peakRSS, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}

	last := rd.rounds[len(rd.rounds)-1]
	audits, replay, err := w.finish(env, last, tr)
	rd.replay = replay
	if err != nil {
		rd.problems = append(rd.problems, err.Error())
	}
	auditStart := time.Now()
	for _, it := range audits {
		if err := it.a.Audit(it.res); err != nil {
			rd.problems = append(rd.problems, fmt.Sprintf("audit %s: %v", it.label, err))
		}
	}
	rd.auditS = time.Since(auditStart).Seconds()

	if tr != nil {
		rd.spans = tr.snapshot()
		if c := coverage(rd.spans); c < minCoverage {
			rd.problems = append(rd.problems,
				fmt.Sprintf("trace: an operation's spans cover only %.3f of its wall (want >= %.2f)", c, minCoverage))
		}
		rd.probes = runProbes(cfg.probeDesign, rd.storeDir, scratch, cfg.seed)
		if cfg.spansOut != "" {
			if err := writeSpans(cfg.spansOut, rd.spans); err != nil {
				return nil, err
			}
		}
	}
	return rd, nil
}
