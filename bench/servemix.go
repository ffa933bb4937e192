package main

// serve-mix: steady-state veloctd. An in-process serve.Server behind
// net/http on a loopback port, two closed-loop HTTP clients (tenants t0 and
// t1), each submitting its round's jobs one at a time and polling its own
// job every 5 ms. Setup is one full round — the cold prime of both tenants
// with journal appends live — so every timed round runs the in-memory warm
// path, except for one cold verification per client under a tenant of its
// own, which keeps a journal append and a namespace miss inside every round
// without making rounds differ from one another.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	core "hhoudini/internal/hhoudini"
	"hhoudini/internal/proofdb"
	"hhoudini/internal/serve"
)

const (
	serveClients = 2
	pollEvery    = 5 * time.Millisecond
)

// serveJobs is one client's round before shuffling. The last entry of a job
// list is the cold job: its tenant is replaced by a fresh one every round.
var serveJobs = []opSpec{
	{kind: kindVerify, design: "small"},
	{kind: kindVerify, design: "small+dbg"},
	{kind: kindVerify, design: largeDesign},
	{kind: kindSynthesize, design: "inorder"},
	{kind: kindSynthesize, design: "execstage"},
	{kind: kindVerify, design: "inorder", unsafe: true},
	{kind: kindVerify, design: "inorder"},
}

// jobTiming is what one job cost as seen from both ends of the wire.
type jobTiming struct {
	cold      bool
	submitRTT float64 // POST round trip
	jobS      float64 // submit → terminal state seen by the client
	queueWait float64 // queued_at → started_at (server clock)
	runS      float64 // started_at → done_at (server clock)
	warmFrac  float64 // the job's own memo-hit share of its queries
	queries   int64
}

type serveWorkload struct {
	jobs     []opSpec // serveJobs, except in tests
	srv      *serve.Server
	httpSrv  *http.Server
	served   chan error
	url      string
	dir      string
	clients  [serveClients]*http.Client
	order    [serveClients][]int // per-client job order, shuffled once by the seed
	baseline int                 // goroutines before the server started
	stats    serve.ServerStats   // read before the drain
	store    proofdb.Stats       // the server's proof store, read before the drain
}

func (w *serveWorkload) workers() int { return 1 }

func (w *serveWorkload) storeDir() string { return w.dir }

func (w *serveWorkload) setup(e *runEnv) error {
	w.baseline = runtime.NumGoroutine()
	w.dir = filepath.Join(e.scratch, "veloctd")
	w.srv = serve.New(serve.Config{Workers: serveClients, JobWorkers: 1, CacheDir: w.dir, Seed: e.seed})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.httpSrv.Serve(ln) }()

	rng := rand.New(rand.NewSource(e.seed))
	for c := range w.clients {
		w.clients[c] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   10 * time.Second,
		}
		w.order[c] = rng.Perm(len(w.jobs))
	}
	return nil
}

func (w *serveWorkload) round(e *runEnv, index int, tr *tracer) roundData {
	rd := roundData{index: index, traced: tr != nil}
	results := make([][]opResult, serveClients)
	coldJob := len(w.jobs) - 1
	cpu := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range w.order[c] {
				spec := w.jobs[j]
				tenant := fmt.Sprintf("t%d", c)
				if j == coldJob {
					tenant = fmt.Sprintf("cold-%d-%d", index+1, c) // warm-up is round -1
				}
				results[c] = append(results[c], w.runJob(c, spec, tenant, j == coldJob, e.seed, index, tr))
			}
		}(c)
	}
	wg.Wait()
	rd.wall = time.Since(start).Seconds()
	rd.cpu = cpuSeconds() - cpu
	for _, r := range results {
		rd.ops = append(rd.ops, r...)
	}
	return rd
}

// runJob submits one job, polls it to a terminal state and checks its
// answer. With a tracer it records the job as a span split at the server's
// queued/started/done timestamps.
func (w *serveWorkload) runJob(c int, spec opSpec, tenant string, cold bool, seed int64, round int, tr *tracer) opResult {
	res := opResult{spec: spec, job: &jobTiming{cold: cold}}
	js := serve.JobSpec{Kind: spec.kind, Design: spec.design, Tenant: tenant, Seed: seed}
	if spec.kind == kindVerify {
		js.Safe = spec.proposal()
	}
	start := time.Now()
	view, status, err := w.submit(c, js)
	posted := time.Now()
	res.job.submitRTT = posted.Sub(start).Seconds()
	switch {
	case err != nil:
		res.err = err
	case status != http.StatusCreated: // a 429 is also counted by the server: serve.rejected_429
		res.err = fmt.Errorf("submit: HTTP %d", status)
	}
	if res.err != nil {
		res.wall = time.Since(start).Seconds()
		return res
	}
	view, err = w.await(c, view.ID, start.Add(opTimeout))
	seen := time.Now()
	res.wall = seen.Sub(start).Seconds()
	res.job.jobS = res.wall
	if err != nil {
		res.err = err
		return res
	}
	if res.err = checkJob(spec, view); res.err != nil {
		return res // its timestamps may be missing, and its timings say nothing about a served job
	}

	queued, started, done := parseStamp(view.QueuedAt), parseStamp(view.StartedAt), parseStamp(view.DoneAt)
	res.job.queueWait = started.Sub(queued).Seconds()
	res.job.runS = done.Sub(started).Seconds()
	if st := view.Stats; st != nil {
		res.job.warmFrac, res.job.queries = st.WarmFraction, st.Queries
		res.learn = learnCounters{ // what of the learner's instrumentation crosses the wire
			tasks: st.Tasks, backtracks: st.Backtracks, queries: st.Queries,
			encodedClauses: st.EncodedClauses, solverAllocs: st.SolverAllocs, poolReuses: st.PoolReuses,
			verdictHits: st.CacheVerdictHits, abductHits: st.CacheAbductHits, diskHits: st.CacheDiskHits,
			retries: st.QueryRetries,
		}
	}
	if tr != nil {
		op := spec.label()
		root := tr.add("op", start, seen, -1, round, op)
		tr.add("serve.submit", start, posted, root, round, op)
		tr.add("serve.queue_wait", queued, started, root, round, op)
		tr.add("serve.run", started, done, root, round, op)
		tr.add("serve.poll_lag", done, seen, root, round, op)
	}
	return res
}

func (w *serveWorkload) submit(c int, js serve.JobSpec) (serve.JobView, int, error) {
	var view serve.JobView
	body, err := json.Marshal(js)
	if err != nil {
		return view, 0, err
	}
	resp, err := w.clients[c].Post(w.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return view, 0, err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusCreated {
		err = json.NewDecoder(resp.Body).Decode(&view)
	}
	return view, resp.StatusCode, err
}

// drain reads a response to its end and closes it, so the client's one
// connection is reused for the next request.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the connection's reuse is at stake
	resp.Body.Close()
}

func (w *serveWorkload) await(c int, id string, deadline time.Time) (serve.JobView, error) {
	for {
		var view serve.JobView
		resp, err := w.clients[c].Get(w.url + "/v1/jobs/" + id)
		if err != nil {
			return view, err
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		drain(resp)
		if err != nil {
			return view, err
		}
		switch view.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return view, nil
		}
		if time.Now().After(deadline) {
			return view, fmt.Errorf("job %s still %s after %v", id, view.State, opTimeout)
		}
		time.Sleep(pollEvery)
	}
}

// checkJob compares a finished job's wire result with expected.go.
func checkJob(spec opSpec, view serve.JobView) error {
	if view.State != serve.StateDone || view.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	if spec.kind == kindSynthesize {
		if !view.Result.Proved {
			return fmt.Errorf("synthesize %s: final set not proved", spec.design)
		}
		return checkSynthesis(spec.design, view.Result.Safe, view.Result.Unsafe)
	}
	return checkVerdict(spec.design, view.Result.Proved, !spec.unsafe)
}

func parseStamp(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// finish verifies the distinct positive proposals of tenant t0 in this process
// over the server's own cache, which yields the invariants to audit. A
// traced run then repeats each verification on the same analysis — the
// server shares one analysis per design across jobs, so its cone memo is
// warm by the first timed round — with spans: where an in-memory-warm
// verdict spends its time. Then it drains the server and checks that
// nothing it started is still running.
func (w *serveWorkload) finish(e *runEnv, last roundData, tr *tracer) ([]auditItem, []opResult, error) {
	var audits []auditItem
	var replay []opResult
	replayed := make(map[string]bool)
	for _, spec := range w.jobs {
		if spec.kind != kindVerify || spec.unsafe || replayed[spec.design] {
			continue
		}
		replayed[spec.design] = true
		env := opEnv{seed: e.seed, workers: 1, cache: w.srv.Cache(), tenant: "t0", round: replayRound}
		res := runOp(spec, env)
		if res.audit != nil {
			audits = append(audits, *res.audit)
			if tr != nil {
				env.tr, env.shared = tr, res.audit.a
				res = runOp(spec, env)
			}
		}
		replay = append(replay, res)
	}
	w.stats = w.srv.StatsPayload()
	w.store, _ = core.ProofDBStatsFor(w.dir)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.srv.Drain(ctx)
	if serr := w.httpSrv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-w.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	for _, cl := range w.clients {
		cl.CloseIdleConnections()
	}
	if err != nil {
		return audits, replay, err
	}
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > w.baseline; {
		if time.Now().After(wait) {
			return audits, replay, fmt.Errorf("serve-mix: %d goroutines after drain, %d before the server started",
				runtime.NumGoroutine(), w.baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return audits, replay, nil
}
