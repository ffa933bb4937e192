package hhoudini

import (
	"fmt"
	"math/rand"
	"testing"

	"hhoudini/internal/circuit"
)

// coldOptions is a single-worker learner over a private, empty cache: every
// query is solved.
func coldOptions() Options { return testOptions(1) }

// warmOptions shares one VerifyCache across Learners.
func warmOptions(c *VerifyCache) Options {
	o := testOptions(1)
	o.Cache = c
	return o
}

// coldWarmDifferential is the cache soundness sweep: on random tiny systems
// drawn from seed, a cold learner and two warm learners sharing one cache
// (the second answering from the first's memos) must agree exactly — same
// verdict, same invariant predicate set — and every invariant must audit.
// It returns the second warm learners' summed verdict-memo and abduct-memo
// hits; a caller seeing none has run a vacuous differential.
func coldWarmDifferential(t *testing.T, seed int64) (verdictHits, abductHits int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for iter := 0; iter < 40; iter++ {
		sys, universe := randomSystem(t, rng)
		target := universe[rng.Intn(len(universe))].(regEq)
		if ok, _ := target.Eval(sys.Circuit, circuit.InitSnapshot(sys.Circuit)); !ok {
			continue
		}
		checked++

		cold := NewLearner(sys, minerOf(universe...), coldOptions())
		invCold, err := cold.Learn([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}

		cache := NewVerifyCache()
		var invWarm *Invariant
		for round := 0; round < 2; round++ {
			l := NewLearner(sys, minerOf(universe...), warmOptions(cache))
			invWarm, err = l.Learn([]Pred{target})
			if err != nil {
				t.Fatal(err)
			}
			if round == 1 {
				verdictHits += l.Stats().CacheVerdictHits
				abductHits += l.Stats().CacheAbductHits
			}
		}

		if (invCold == nil) != (invWarm == nil) {
			t.Fatalf("iter %d: cold found=%v warm found=%v", iter, invCold != nil, invWarm != nil)
		}
		if invCold == nil {
			continue
		}
		gc, gw := ids(invCold), ids(invWarm)
		if len(gc) != len(gw) {
			t.Fatalf("iter %d: invariant sizes differ: cold %v warm %v", iter, gc, gw)
		}
		for id := range gc {
			if !gw[id] {
				t.Fatalf("iter %d: warm invariant %v missing %s (cold %v)", iter, gw, id, gc)
			}
		}
		if err := Audit(sys, invWarm); err != nil {
			t.Fatalf("iter %d: warm invariant fails audit: %v", iter, err)
		}
	}
	if checked < 10 {
		t.Fatalf("sweep too small: only %d usable systems", checked)
	}
	t.Logf("random systems: %d checked, %d verdict hits, %d abduct hits", checked, verdictHits, abductHits)
	return verdictHits, abductHits
}

// TestCrossRunDifferentialRandomSystems runs the sweep and requires the
// second warm learners to have hit the verdict memo.
func TestCrossRunDifferentialRandomSystems(t *testing.T) {
	if verdictHits, _ := coldWarmDifferential(t, 20250806); verdictHits == 0 {
		t.Fatal("second warm runs never hit the verdict memo; differential is vacuous")
	}
}

// envSystem builds x' = x ∧ ¬in with x init 1: under the environment
// assumption in==0 the target x==1 is inductive; under in==1 it is not.
func envSystem(t *testing.T, pinInput uint64, envKey string) (*System, Pred) {
	t.Helper()
	b := circuit.NewBuilder()
	in := b.Input("in", 1)
	x := b.Register("x", 1, 1)
	b.SetNext("x", circuit.Word{b.And2(x[0], b.Not(in[0]))})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := &System{
		Circuit: c,
		Constrain: func(enc *circuit.Encoder) error {
			lits, err := enc.InputLits("in")
			if err != nil {
				return err
			}
			l := lits[0]
			if pinInput == 0 {
				l = l.Not()
			}
			enc.AssertLit(l)
			return nil
		},
		EnvKey: envKey,
	}
	return sys, regEq{reg: "x", val: 1}
}

// TestCrossRunEnvKeyInvalidation is the invalidation contract: a changed
// environment assumption (different EnvKey over the same circuit) must miss
// the cache, while returning to a previously seen EnvKey
// hits again. The two environments provably need different verdicts, so a
// stale hit would be unsound, not just slow.
func TestCrossRunEnvKeyInvalidation(t *testing.T) {
	cache := NewVerifyCache()
	learn := func(pin uint64, key string) (*Learner, *Invariant) {
		sys, target := envSystem(t, pin, key)
		l := NewLearner(sys, minerOf(target), warmOptions(cache))
		inv, err := l.Learn([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}
		return l, inv
	}

	// Round 1: in==0, invariant exists. Populates the cache.
	l0, inv0 := learn(0, "in=0")
	if inv0 == nil {
		t.Fatal("x==1 must be inductive under in==0")
	}
	if l0.Stats().CacheVerdictHits+l0.Stats().CacheAbductHits != 0 {
		t.Fatal("first run over an empty cache cannot hit")
	}

	// Round 2: in==1, a different EnvKey. Must miss — and the fresh solve
	// must reach the opposite verdict.
	missesBefore := cache.Counters().VerdictMisses
	l1, inv1 := learn(1, "in=1")
	if inv1 != nil {
		t.Fatal("x==1 must NOT be inductive under in==1; a stale cache hit leaked across environments")
	}
	st := l1.Stats()
	if st.CacheVerdictHits+st.CacheAbductHits != 0 {
		t.Fatalf("changed EnvKey must miss: verdict hits %d, abduct hits %d",
			st.CacheVerdictHits, st.CacheAbductHits)
	}
	if cache.Counters().VerdictMisses == missesBefore {
		t.Fatal("changed EnvKey run recorded no verdict misses; cache was never consulted")
	}

	// Round 3: back to in==0. The original entry must still be live.
	l2, inv2 := learn(0, "in=0")
	if inv2 == nil {
		t.Fatal("returning to in==0 must still find the invariant")
	}
	if l2.Stats().CacheVerdictHits == 0 {
		t.Fatal("repeat of a cached EnvKey must hit the verdict memo")
	}
}

// TestUncacheableSystemBypassesCache: a System with a non-nil Constrain but
// no EnvKey has no canonical identity, so the learner must run fully cold —
// no counters move, and the supplied cache stays untouched.
func TestUncacheableSystemBypassesCache(t *testing.T) {
	cache := NewVerifyCache()
	sys, target := envSystem(t, 0, "in=0")
	sys.EnvKey = "" // same constraint, but anonymous: not cacheable
	if sys.cacheable() {
		t.Fatal("non-nil Constrain with empty EnvKey must not be cacheable")
	}
	l := NewLearner(sys, minerOf(target), warmOptions(cache))
	inv, err := l.Learn([]Pred{target})
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil {
		t.Fatal("uncacheable learner must still learn")
	}
	st := l.Stats()
	if st.CacheVerdictHits+st.CacheAbductHits != 0 {
		t.Fatalf("uncacheable system moved cache counters: verdict %d, abduct %d",
			st.CacheVerdictHits, st.CacheAbductHits)
	}
	if c := cache.Counters(); c != (CacheCounters{}) {
		t.Fatalf("uncacheable system touched the cache: %+v", c)
	}
}

// TestVerifyCacheMaxKeysEviction drives more distinct cache keys than
// maxKeys through the verdict store and checks whole-key LRU eviction keeps
// the table bounded.
func TestVerifyCacheMaxKeysEviction(t *testing.T) {
	vc := NewVerifyCache()
	storeDummyVerdicts(vc, defaultCacheMaxKeys*2)
	vc.mu.Lock()
	n := len(vc.entries)
	vc.mu.Unlock()
	if n > defaultCacheMaxKeys {
		t.Fatalf("cache holds %d keys, budget is %d", n, defaultCacheMaxKeys)
	}
}

// TestVerifyCacheEvictionKeepsNewestKey: past maxKeys, the key being
// inserted is the most recently used one, so eviction must pick an older
// victim; and the records credited to the new key must stay in the
// footprint counters (a recount over the table agrees with them).
func TestVerifyCacheEvictionKeepsNewestKey(t *testing.T) {
	vc := NewVerifyCache()
	vk := verdictKeyFor(regEq{reg: "A", val: 1}, nil, true)
	const n = 600
	for i := 0; i < n; i++ {
		vc.storeVerdict(fmt.Sprintf("key%03d", i), vk, abductResult{ok: false})
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if len(vc.entries) > defaultCacheMaxKeys {
		t.Fatalf("cache holds %d keys, budget is %d", len(vc.entries), defaultCacheMaxKeys)
	}
	newest := fmt.Sprintf("key%03d", n-1)
	if e, ok := vc.entries[newest]; !ok || len(e.verdicts) != 1 {
		t.Fatalf("newest key %q was evicted (or lost its verdict)", newest)
	}
	records, bytes := 0, int64(0)
	for _, e := range vc.entries {
		records += len(e.verdicts)
		for _, v := range e.verdicts {
			bytes += verdictBytes(v)
		}
		for _, recs := range e.abducts {
			for _, r := range recs {
				records++
				bytes += abductBytes(r)
			}
		}
		if e.records != len(e.verdicts) {
			t.Fatalf("entry credited %d records, holds %d verdicts", e.records, len(e.verdicts))
		}
	}
	for k := range vc.entries {
		bytes += int64(len(k))
	}
	if vc.curRecords != records || vc.curBytes != bytes {
		t.Fatalf("footprint counters %d records / %d bytes, recount %d / %d",
			vc.curRecords, vc.curBytes, records, bytes)
	}
}

// TestCrossRunConcurrentLearners stresses the concurrency contract: many
// Learners (each itself multi-worker) share one cache simultaneously over
// the same system. Under -race this pins the locking discipline; every
// worker owns its solvers outright, so every goroutine must still converge
// on the same audited invariant.
func TestCrossRunConcurrentLearners(t *testing.T) {
	sys, universe, target := backtrackSystem(t)
	cache := NewVerifyCache()
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			opts := warmOptions(cache)
			opts.Workers = 2
			l := NewLearner(sys, minerOf(universe...), opts)
			inv, err := l.Learn([]Pred{target})
			if err != nil {
				errs <- err
				return
			}
			if inv == nil {
				errs <- fmt.Errorf("concurrent learner found no invariant")
				return
			}
			if got := ids(inv); !got["B==1"] || !got["C==1"] {
				errs <- fmt.Errorf("invariant %v missing B==1/C==1", got)
				return
			}
			errs <- Audit(sys, inv)
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func storeDummyVerdicts(vc *VerifyCache, n int) {
	vk := verdictKeyFor(regEq{reg: "A", val: 1}, nil, true)
	for i := 0; i < n; i++ {
		vc.storeVerdict(string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('0'+i/260)), vk, abductResult{ok: false})
	}
}

// TestVerifyCacheFootprintCounters: the footprint and eviction counters the
// /v1/stats surface reports stay coherent under overwrite and key eviction.
func TestVerifyCacheFootprintCounters(t *testing.T) {
	vc := NewVerifyCache()
	c0 := vc.Counters()
	if c0.ApproxBytes != 0 || c0.BytesHighWater != 0 || c0.Entries != 0 {
		t.Fatalf("fresh cache reports footprint %+v", c0)
	}

	storeDummyVerdicts(vc, 10)
	c1 := vc.Counters()
	if c1.Entries != 10 || c1.ApproxBytes <= 0 {
		t.Fatalf("after 10 keys: entries %d bytes %d", c1.Entries, c1.ApproxBytes)
	}
	if c1.BytesHighWater < c1.ApproxBytes {
		t.Fatalf("high-water %d below live footprint %d", c1.BytesHighWater, c1.ApproxBytes)
	}

	// Overwriting a verdict must not double-count its bytes.
	vk := verdictKeyFor(regEq{reg: "A", val: 1}, nil, true)
	vc.storeVerdict("a00", vk, abductResult{ok: true})
	c2 := vc.Counters()
	if c2.Entries != 10 || c2.ApproxBytes != c1.ApproxBytes {
		t.Fatalf("overwrite changed footprint: %d → %d bytes", c1.ApproxBytes, c2.ApproxBytes)
	}

	// Eviction debits the live footprint but never the high-water mark.
	storeDummyVerdicts(vc, defaultCacheMaxKeys*2)
	c3 := vc.Counters()
	if c3.KeyEvictions == 0 {
		t.Fatal("no evictions under flood")
	}
	if c3.BytesHighWater < c3.ApproxBytes {
		t.Fatalf("high-water %d below live %d after evictions", c3.BytesHighWater, c3.ApproxBytes)
	}
	if c3.BytesHighWater < c1.BytesHighWater {
		t.Fatalf("high-water went backwards: %d → %d", c1.BytesHighWater, c3.BytesHighWater)
	}
}
