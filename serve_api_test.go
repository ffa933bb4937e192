package hhoudini_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"hhoudini/internal/proofdb"
	"hhoudini/internal/serve"
)

// serve_api_test.go is the service-layer acceptance test (in-process, so
// `make chaos` runs it under -race):
// 8 concurrent clients × 2 OoO variants against a live server over HTTP,
// repeat pass ≥90% warm, and a SIGTERM-shaped drain mid-load after which
// every accepted job has resolved and the proof store reloads uncorrupted.

func submitServeJob(t *testing.T, url string, spec serve.JobSpec) serve.JobView {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var v serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func awaitServeJob(t *testing.T, url, id string) serve.JobView {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return v
		}
		time.Sleep(15 * time.Millisecond)
	}
	t.Fatalf("job %s never resolved", id)
	return serve.JobView{}
}

// clientSpec assigns client c its (design, tenant) pair: two OoO variants ×
// two tenants, each combination driven by two of the eight clients — so the
// repeat pass always has a same-tenant predecessor to warm from.
func clientSpec(c int) serve.JobSpec {
	designs := []string{"small", "small+dbg"}
	tenants := []string{"alpha", "beta"}
	return serve.JobSpec{
		Kind:    serve.KindVerify,
		Design:  designs[c%2],
		Tenant:  tenants[(c/2)%2],
		Safe:    []string{"add", "sub", "and", "or", "xor"},
		Workers: 2,
		// Roomy deadline: a cold SmallOoO pass under -race on a loaded
		// builder is orders slower than the plain-run seconds it takes.
		TimeoutMS: (8 * time.Minute).Milliseconds(),
	}
}

func TestServeWarmMultiTenantAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full OoO designs; skipped in -short mode")
	}
	s := serve.New(serve.Config{Workers: 4})
	defer s.Close() //nolint:errcheck
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	runPass := func(pass int) []serve.JobView {
		t.Helper()
		views := make([]serve.JobView, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				v := submitServeJob(t, ts.URL, clientSpec(c))
				views[c] = awaitServeJob(t, ts.URL, v.ID)
			}(c)
		}
		wg.Wait()
		for c, v := range views {
			if v.State != serve.StateDone {
				t.Fatalf("pass %d client %d: state %s (error %q)", pass, c, v.State, v.Error)
			}
			if v.Result == nil || !v.Result.Proved {
				t.Fatalf("pass %d client %d: not proved: %+v", pass, c, v.Result)
			}
		}
		return views
	}

	runPass(1)
	warm := runPass(2)
	for c, v := range warm {
		if v.Stats == nil || v.Stats.Queries == 0 {
			t.Fatalf("client %d: no stats on warm pass", c)
		}
		if v.Stats.WarmFraction < 0.9 {
			t.Fatalf("client %d (%s/%s): warm fraction %.3f < 0.9",
				c, clientSpec(c).Design, clientSpec(c).Tenant, v.Stats.WarmFraction)
		}
	}
}

func TestChaosServeDrainMidLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full OoO designs; skipped in -short mode")
	}
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	s := serve.New(serve.Config{Workers: 2, CacheDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill the service: 2 in-flight, 6 queued. Then drain with a grace far
	// shorter than a cold SmallOoO verification, so the in-flight jobs are
	// cancelled mid-solve and the queued ones are cancelled outright.
	var ids []string
	for c := 0; c < 8; c++ {
		ids = append(ids, submitServeJob(t, ts.URL, clientSpec(c)).ID)
	}
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Every accepted job has resolved — done or a typed cancellation — and
	// is still observable over the (independent) HTTP listener.
	var canceled int
	for _, id := range ids {
		v := awaitServeJob(t, ts.URL, id)
		switch v.State {
		case serve.StateDone:
		case serve.StateCanceled:
			canceled++
			if v.Error == "" {
				t.Fatalf("job %s: cancellation carries no typed error", id)
			}
		default:
			t.Fatalf("job %s: state %s (error %q)", id, v.State, v.Error)
		}
	}
	if canceled == 0 {
		t.Fatal("a 100ms grace cancelled nothing; the drain was never exercised mid-load")
	}

	// Post-drain the server admits nothing.
	body, _ := json.Marshal(clientSpec(0))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %d, want 503", resp.StatusCode)
	}

	// The drain flushed the proof store; it must reload uncorrupted.
	db, err := proofdb.Open(dir, proofdb.Options{})
	if err != nil {
		t.Fatalf("proofdb reload: %v", err)
	}
	st := db.Stats()
	db.Close() //nolint:errcheck
	if st.CorruptSkipped > 0 || st.HeaderRejected {
		t.Fatalf("proofdb reload: %d corrupt records (header rejected %v)", st.CorruptSkipped, st.HeaderRejected)
	}

	// No goroutines survive the drained server (the HTTP test listener is
	// closed first so its conns don't count against the baseline).
	ts.Close()
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
