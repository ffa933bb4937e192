package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hhoudini/internal/faultinject"
	core "hhoudini/internal/hhoudini"
)

// bareServer builds a Server with no executor pool: submissions stay queued,
// so admission and queue-order behavior can be observed deterministically.
func bareServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   cfg.Cache,
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		queues:  make(map[string][]*Job),
		cancels: make(map[string]context.CancelFunc),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func TestJobSpecValidation(t *testing.T) {
	cfg := Config{}.withDefaults()
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown kind", JobSpec{Kind: "prove", Design: "execstage", Safe: []string{"add"}}, "unknown kind"},
		{"missing design", JobSpec{Kind: KindVerify, Safe: []string{"add"}}, "design is required"},
		{"unknown design", JobSpec{Kind: KindVerify, Design: "huge", Safe: []string{"add"}}, "unknown design"},
		{"dbg on execstage", JobSpec{Kind: KindVerify, Design: "execstage+dbg", Safe: []string{"add"}}, "+dbg"},
		{"empty safe", JobSpec{Kind: KindVerify, Design: "execstage"}, "non-empty safe"},
		{"bad tenant char", JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}, Tenant: "a/b"}, "invalid tenant"},
		{"tenant too long", JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}, Tenant: strings.Repeat("x", 65)}, "invalid tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := newJob(tc.spec, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}

	j, err := newJob(JobSpec{Kind: KindSynthesize, Design: "Small+DBG"}, cfg)
	if err != nil {
		t.Fatalf("synthesize without safe set must be valid: %v", err)
	}
	if j.tenant != "default" {
		t.Fatalf("tenant = %q, want default", j.tenant)
	}
	if j.timeout != cfg.DefaultTimeout {
		t.Fatalf("timeout = %v, want %v", j.timeout, cfg.DefaultTimeout)
	}

	j, err = newJob(JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"},
		TimeoutMS: (20 * time.Minute).Milliseconds()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j.timeout != cfg.MaxTimeout {
		t.Fatalf("timeout = %v, want cap %v", j.timeout, cfg.MaxTimeout)
	}
}

func TestRoundRobinFairShare(t *testing.T) {
	s := bareServer(Config{MaxQueued: 64, MaxQueuedPerTenant: 8})
	submit := func(tenant string) string {
		t.Helper()
		j, admErr := s.submit(JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}, Tenant: tenant})
		if admErr != nil {
			t.Fatalf("submit(%s): %v", tenant, admErr)
		}
		return j.id
	}
	// Tenant a floods first; b and c each queue one job afterwards.
	a1, a2, a3 := submit("a"), submit("a"), submit("a")
	b1 := submit("b")
	c1 := submit("c")

	var got []string
	s.mu.Lock()
	for {
		j := s.popLocked()
		if j == nil {
			break
		}
		got = append(got, j.id)
	}
	s.mu.Unlock()

	// Round-robin interleaves tenants: a1 b1 c1 a2 a3 — the flood cannot
	// starve b and c even though it queued first.
	want := []string{a1, b1, c1, a2, a3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
}

func TestAdmissionCaps(t *testing.T) {
	s := bareServer(Config{MaxQueued: 5, MaxQueuedPerTenant: 2, RetryAfter: 3 * time.Second})
	spec := func(tenant string) JobSpec {
		return JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}, Tenant: tenant}
	}
	for i := 0; i < 2; i++ {
		if _, admErr := s.submit(spec("flood")); admErr != nil {
			t.Fatalf("submit %d: %v", i, admErr)
		}
	}
	// Per-tenant cap: flood's third submission is a 429 with Retry-After,
	// but a different tenant is still admitted.
	_, admErr := s.submit(spec("flood"))
	if admErr == nil || admErr.status != 429 {
		t.Fatalf("per-tenant overflow: got %+v, want 429", admErr)
	}
	if admErr.retryAfter != 3*time.Second {
		t.Fatalf("retryAfter = %v, want 3s", admErr.retryAfter)
	}
	if _, admErr := s.submit(spec("other")); admErr != nil {
		t.Fatalf("fair share: other tenant rejected during flood: %v", admErr)
	}

	// Global cap: 3 queued now; two more tenants fill to 5, then anyone is 429.
	for _, tenant := range []string{"t3", "t4"} {
		if _, admErr := s.submit(spec(tenant)); admErr != nil {
			t.Fatal(admErr)
		}
	}
	_, admErr = s.submit(spec("t5"))
	if admErr == nil || admErr.status != 429 {
		t.Fatalf("global overflow: got %+v, want 429", admErr)
	}

	// Draining: everything is a 503 regardless of capacity.
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	_, admErr = s.submit(spec("other"))
	if admErr == nil || admErr.status != 503 {
		t.Fatalf("draining: got %+v, want 503", admErr)
	}

	st := s.StatsPayload()
	if st.RejectedBusy != 2 || st.RejectedGone != 1 || st.Accepted != 5 {
		t.Fatalf("counters = busy %d gone %d accepted %d, want 2/1/5",
			st.RejectedBusy, st.RejectedGone, st.Accepted)
	}
}

// postJob submits a spec over HTTP and returns the decoded view + response.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (JobView, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp
}

// awaitJob polls until the job reaches a terminal state.
func awaitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case StateDone, StateFailed, StateCanceled:
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close() //nolint:errcheck
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}

	v, resp := postJob(t, ts, JobSpec{Kind: KindLearn, Design: "execstage", Safe: []string{"add"}, Tenant: "t1"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d, want 201", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+v.ID {
		t.Fatalf("Location = %q", loc)
	}
	final := awaitJob(t, ts, v.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	if final.Result == nil || !final.Result.Proved {
		t.Fatalf("result = %+v, want proved", final.Result)
	}
	if len(final.Result.Predicates) == 0 || final.Result.InvariantSize != len(final.Result.Predicates) {
		t.Fatalf("learn job must list its invariant: size %d, %d predicates",
			final.Result.InvariantSize, len(final.Result.Predicates))
	}
	if final.Stats == nil || final.Stats.Queries == 0 {
		t.Fatalf("stats = %+v, want non-zero queries", final.Stats)
	}

	// A repeat of the same job (same tenant) answers from the memo layers.
	v2, _ := postJob(t, ts, JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}, Tenant: "t1"})
	warm := awaitJob(t, ts, v2.ID)
	if warm.State != StateDone {
		t.Fatalf("warm state = %s (error %q)", warm.State, warm.Error)
	}
	if warm.Result.Proved != true {
		t.Fatal("warm repeat must still prove")
	}
	if warm.Stats.WarmFraction < 0.9 {
		t.Fatalf("warm fraction = %.3f, want ≥0.9", warm.Stats.WarmFraction)
	}
	// verify (unlike learn) reports the verdict only, not the invariant.
	if len(warm.Result.Predicates) != 0 {
		t.Fatal("verify job must not list predicates")
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsDone != 2 || st.Accepted != 2 || st.Workers != 2 {
		t.Fatalf("stats = done %d accepted %d workers %d", st.JobsDone, st.Accepted, st.Workers)
	}
	if st.Cache.AbductHits == 0 {
		t.Fatal("stats must surface shared-cache hit counters")
	}

	// Error surfaces.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"verify","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", resp.StatusCode)
	}
}

func TestTenantCacheIsolationOverHTTP(t *testing.T) {
	cache := core.NewVerifyCache()
	s := New(Config{Workers: 2, Cache: cache})
	defer s.Close() //nolint:errcheck
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := func(tenant string) JobView {
		v, resp := postJob(t, ts, JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}, Tenant: tenant})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit(%s) = %d", tenant, resp.StatusCode)
		}
		return awaitJob(t, ts, v.ID)
	}
	if v := run("alpha"); v.State != StateDone {
		t.Fatalf("alpha: %s (%s)", v.State, v.Error)
	}
	// A different tenant's first run over the same design must NOT be warm:
	// its keys live in a different namespace, so nothing transfers.
	cold := run("beta")
	if cold.State != StateDone {
		t.Fatalf("beta: %s (%s)", cold.State, cold.Error)
	}
	if cold.Stats.WarmFraction > 0.5 {
		t.Fatalf("cross-tenant warm fraction = %.3f — tenant isolation leaked", cold.Stats.WarmFraction)
	}
	// Whereas the same tenant repeating IS warm.
	warm := run("beta")
	if warm.Stats.WarmFraction < 0.9 {
		t.Fatalf("same-tenant warm fraction = %.3f, want ≥0.9", warm.Stats.WarmFraction)
	}
}

func TestChaosJobFailDoesNotWedgeWorker(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close() //nolint:errcheck
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	injected := errors.New("injected job failure")
	faultinject.Arm(faultinject.JobFail, faultinject.Spec{Count: 1, Err: injected})
	defer faultinject.Reset()

	v, _ := postJob(t, ts, JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}})
	failed := awaitJob(t, ts, v.ID)
	if failed.State != StateFailed || !strings.Contains(failed.Error, "injected") {
		t.Fatalf("state = %s error = %q, want injected failure", failed.State, failed.Error)
	}

	// The single worker must survive the failure and serve the next job.
	v2, _ := postJob(t, ts, JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}})
	ok := awaitJob(t, ts, v2.ID)
	if ok.State != StateDone {
		t.Fatalf("post-failure job = %s (%s), want done", ok.State, ok.Error)
	}

	st := s.StatsPayload()
	if st.JobsFailed != 1 || st.JobsDone != 1 {
		t.Fatalf("counters = failed %d done %d, want 1/1", st.JobsFailed, st.JobsDone)
	}
}

func TestChaosDrainCancelsDelayedJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.JobDelay, faultinject.Spec{Count: -1, Delay: 300 * time.Millisecond})
	defer faultinject.Reset()

	// One job occupies the worker (sleeping in the injected delay); a second
	// stays queued behind it.
	running, _ := postJob(t, ts, JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}})
	queued, _ := postJob(t, ts, JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}})

	// Drain with a grace far shorter than the injected delay: the queued job
	// is canceled outright; the in-flight one gets its context canceled and
	// must resolve with a typed cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, id := range []string{running.ID, queued.ID} {
		j, ok := s.job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		v := j.view()
		if v.State != StateCanceled && v.State != StateDone {
			t.Fatalf("job %s = %s (error %q), want canceled (or done)", id, v.State, v.Error)
		}
	}

	// Post-drain: admission refuses, readiness reports down.
	_, resp := postJob(t, ts, JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %d, want 503", resp.StatusCode)
	}
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain readyz = %d, want 503", rr.StatusCode)
	}

	// Drain is idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestCancelPerJobDeadline(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close() //nolint:errcheck
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A 1ms deadline cannot complete any real verification: the job must
	// resolve as a typed cancellation, not a failure or a wedged worker.
	v, resp := postJob(t, ts, JobSpec{Kind: KindVerify, Design: "small", Safe: []string{"add", "sub"}, TimeoutMS: 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	final := awaitJob(t, ts, v.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %s (error %q), want canceled", final.State, final.Error)
	}

	// The worker slot is free again.
	v2, _ := postJob(t, ts, JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}})
	if ok := awaitJob(t, ts, v2.ID); ok.State != StateDone {
		t.Fatalf("post-deadline job = %s (%s)", ok.State, ok.Error)
	}
}

// TestKill9RestartWarmFromJournal is the append path's end-to-end proof at
// the service level: run a learn job with a persistent CacheDir, then kill
// the "process" with NO drain — core.CrashProofDBs abandons the stores
// without a flush or final sync, leaving on disk exactly what a kill -9
// would. Every job ends in a durability point (the learner's shutdown
// Persist), so a restarted server over the same directory must answer
// >=90% of the repeat job's queries warm from proof.db, the only file the
// store keeps.
func TestKill9RestartWarmFromJournal(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Workers: 1, CacheDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	v, resp := postJob(t, ts1, JobSpec{Kind: KindLearn, Design: "execstage", Safe: []string{"add"}, Tenant: "t1"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d, want 201", resp.StatusCode)
	}
	if final := awaitJob(t, ts1, v.ID); final.State != StateDone {
		t.Fatalf("learn job = %s (%s)", final.State, final.Error)
	}
	st1 := s1.StatsPayload()
	if st1.ProofDB == nil {
		t.Fatal("/v1/stats surfaces no proofdb section for a CacheDir server")
	}
	if st1.ProofDB.JournalAppends == 0 || st1.ProofDB.JournalSyncs == 0 {
		t.Fatalf("journal idle during the job: appends=%d syncs=%d",
			st1.ProofDB.JournalAppends, st1.ProofDB.JournalSyncs)
	}
	ts1.Close()
	core.CrashProofDBs() // kill -9: no drain, no flush, no close
	if err := s1.Close(); err != nil {
		// The registry is already empty; Close just stops the worker pool.
		t.Fatalf("post-crash teardown: %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "proof.db" {
		t.Fatalf("store directory after the crash: %v (err=%v), want proof.db alone", entries, err)
	}

	// Restart: fresh server, fresh cache, same directory.
	s2 := New(Config{Workers: 1, CacheDir: dir})
	defer s2.Close() //nolint:errcheck
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	v2, _ := postJob(t, ts2, JobSpec{Kind: KindVerify, Design: "execstage", Safe: []string{"add"}, Tenant: "t1"})
	warm := awaitJob(t, ts2, v2.ID)
	if warm.State != StateDone {
		t.Fatalf("restart job = %s (%s)", warm.State, warm.Error)
	}
	if warm.Stats.WarmFraction < 0.9 {
		t.Fatalf("restart warm fraction = %.3f, want >=0.9 after the crash", warm.Stats.WarmFraction)
	}
	st2 := s2.StatsPayload()
	if st2.ProofDB == nil || st2.ProofDB.JournalReplayed == 0 {
		t.Fatalf("restart applied no records: %+v", st2.ProofDB)
	}
}

// TestReadyzNotesDegradedJournal: persistent journal I/O failure degrades
// the store to snapshot-only persistence; /readyz must stay 200 (the
// daemon is fully functional) while noting the downgrade, and /v1/stats
// must flag it.
func TestReadyzNotesDegradedJournal(t *testing.T) {
	dir := t.TempDir()
	faultinject.Arm(faultinject.JournalAppend, faultinject.Spec{Count: -1, Err: errors.New("chaos: journal disk gone")})
	defer faultinject.Reset()

	s := New(Config{Workers: 1, CacheDir: dir})
	defer s.Close() //nolint:errcheck
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, JobSpec{Kind: KindLearn, Design: "execstage", Safe: []string{"add"}})
	if final := awaitJob(t, ts, v.ID); final.State != StateDone {
		t.Fatalf("job must succeed despite journal failure: %s (%s)", final.State, final.Error)
	}

	st := s.StatsPayload()
	if st.ProofDB == nil || !st.ProofDB.JournalDegraded {
		t.Fatalf("stats do not flag the degraded journal: %+v", st.ProofDB)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d on a degraded journal, want 200 (snapshot-only is not an outage)", resp.StatusCode)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Fatalf("readyz body does not note the degradation: %q", body)
	}
}
