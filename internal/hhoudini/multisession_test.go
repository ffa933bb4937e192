package hhoudini

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"hhoudini/internal/faultinject"
)

// multisession_test.go: the service-layer concurrency contract at the
// learner level — many simultaneous LearnCtx sessions multiplexed over ONE
// shared VerifyCache and ONE proofdb directory, with mid-flight
// cancellations mixed in. Runs under `make race-proofdb` (the
// 'TestConcurrent' tier regex) so every assertion here is race-checked.

// sessionOptions: shared-cache options with persistence bound to dir.
func sessionOptions(c *VerifyCache, dir string) Options {
	o := warmOptions(c)
	o.CacheDir = dir
	o.Workers = 2
	return o
}

// TestConcurrentMultiSessionSharedCacheAndStore runs 6 concurrent LearnCtx
// sessions (2 of them cancelled mid-flight by tight deadlines) over one
// cache + store, then asserts: completed sessions found auditing
// invariants, cancelled ones returned typed errors, nothing leaked, and
// the store reloads consistent — a fresh "process" warm-starts from it.
func TestConcurrentMultiSessionSharedCacheAndStore(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	cache := NewVerifyCache()

	// Stretch the first queries so the tight-deadline sessions are
	// genuinely cancelled mid-learn, not before their first task.
	faultinject.Arm(faultinject.QueryDelay, faultinject.Spec{Count: 40, Delay: 5 * time.Millisecond})

	const sessions = 6
	type outcome struct {
		inv *Invariant
		err error
	}
	results := make([]outcome, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys, universe, target := backtrackSystem(t)
			l := NewLearner(sys, minerOf(universe...), sessionOptions(cache, dir))
			ctx := context.Background()
			if i >= sessions-2 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 20*time.Millisecond)
				defer cancel()
			}
			inv, err := l.LearnCtx(ctx, []Pred{target})
			results[i] = outcome{inv: inv, err: err}
		}(i)
	}
	wg.Wait()
	faultinject.Reset()

	var completed int
	for i, r := range results {
		switch {
		case r.err == nil:
			if r.inv == nil {
				t.Fatalf("session %d: no error but no invariant", i)
			}
			sys, _, _ := backtrackSystem(t)
			if err := Audit(sys, r.inv); err != nil {
				t.Fatalf("session %d: invariant fails audit: %v", i, err)
			}
			completed++
		case errors.Is(r.err, context.DeadlineExceeded) || errors.Is(r.err, context.Canceled):
			// Typed cancellation — the contract for the deadline sessions.
		default:
			t.Fatalf("session %d: unexpected error %v", i, r.err)
		}
	}
	if completed == 0 {
		t.Fatal("every session cancelled; the test exercised nothing")
	}

	// All sessions share one store binding; flush and close it.
	if err := CloseProofDBs(); err != nil {
		t.Fatalf("close after concurrent sessions: %v", err)
	}

	// Fresh process image: new cache, same dir. The store must load clean
	// and warm-start a completing run.
	sys, universe, target := backtrackSystem(t)
	l := NewLearner(sys, minerOf(universe...), sessionOptions(NewVerifyCache(), dir))
	inv, err := l.Learn([]Pred{target})
	if err != nil || inv == nil {
		t.Fatalf("post-reload Learn: inv=%v err=%v", inv, err)
	}
	if l.pdb == nil {
		t.Fatal("reloaded learner did not bind the proof store")
	}
	if err := Audit(sys, inv); err != nil {
		t.Fatalf("post-reload invariant fails audit: %v", err)
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestConcurrentMultiSessionNamespaces is the tenant-isolation argument at
// the cache layer: concurrent sessions in namespace "a" populate the shared
// cache; afterwards a warm "a" session answers from the memo while a first
// "b" session over the byte-identical circuit gets nothing — the namespace
// prefix partitions every key.
func TestConcurrentMultiSessionNamespaces(t *testing.T) {
	cache := NewVerifyCache()
	run := func(ns string) *Learner {
		t.Helper()
		sys, universe, target := backtrackSystem(t)
		sys.Namespace = ns
		l := NewLearner(sys, minerOf(universe...), warmOptions(cache))
		inv, err := l.Learn([]Pred{target})
		if err != nil || inv == nil {
			t.Fatalf("ns %q: inv=%v err=%v", ns, inv, err)
		}
		return l
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run("a")
		}()
	}
	wg.Wait()

	warm := run("a")
	if hits := warm.Stats().CacheAbductHits; hits == 0 {
		t.Fatal("same-namespace repeat must hit the abduct memo")
	}
	cold := run("b")
	if st := cold.Stats(); st.CacheVerdictHits+st.CacheAbductHits != 0 {
		hits := st.CacheVerdictHits + st.CacheAbductHits
		t.Fatalf("namespace b answered %d queries from namespace a's memo — isolation leaked", hits)
	}
}
