package hhoudini

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hhoudini/internal/circuit"
	"hhoudini/internal/proofdb"
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
// It returns the second warm learners' summed negative (Sat-set) and abduct
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
	t.Logf("random systems: %d checked, %d negative hits, %d abduct hits", checked, verdictHits, abductHits)
	return verdictHits, abductHits
}

// TestCrossRunDifferentialRandomSystems runs the sweep and requires the
// second warm learners to have answered "no abduct" from a stored Sat set.
func TestCrossRunDifferentialRandomSystems(t *testing.T) {
	if verdictHits, _ := coldWarmDifferential(t, 20250806); verdictHits == 0 {
		t.Fatal("second warm runs never hit a stored Sat set; differential is vacuous")
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
	if l2.Stats().CacheAbductHits == 0 {
		t.Fatal("repeat of a cached EnvKey must hit the abduct memo")
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
// maxKeys through the abduct store and checks whole-key LRU eviction keeps
// the table bounded.
func TestVerifyCacheMaxKeysEviction(t *testing.T) {
	vc := NewVerifyCache()
	storeDummyAbducts(vc, defaultCacheMaxKeys*2)
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
	target := regEq{reg: "A", val: 1}
	const n = 600
	for i := 0; i < n; i++ {
		vc.store(fmt.Sprintf("key%03d", i), target, []Pred{regEq{reg: "B", val: 1}}, abductResult{ok: false})
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if len(vc.entries) > defaultCacheMaxKeys {
		t.Fatalf("cache holds %d keys, budget is %d", len(vc.entries), defaultCacheMaxKeys)
	}
	newest := fmt.Sprintf("key%03d", n-1)
	if e, ok := vc.entries[newest]; !ok || e.records != 1 || len(e.targets[target.ID()].satSets) != 1 {
		t.Fatalf("newest key %q was evicted (or lost its Sat set)", newest)
	}
	checkFootprintLocked(t, vc)
}

// checkFootprintLocked recounts every entry's records and bytes and
// compares them with the incrementally maintained counters. Caller holds
// vc.mu.
func checkFootprintLocked(t *testing.T, vc *VerifyCache) {
	t.Helper()
	records, bytes := 0, int64(0)
	for k, e := range vc.entries {
		n, b := 0, int64(len(k))
		for _, m := range e.targets {
			for _, r := range append(append([]memoRec(nil), m.abducts...), m.satSets...) {
				n++
				b += recBytes(r)
			}
		}
		if e.records != n || e.bytes != b {
			t.Fatalf("entry %q credited %d records / %d bytes, holds %d / %d", k, e.records, e.bytes, n, b)
		}
		records += n
		bytes += b
	}
	if c := vc.counters; c.Entries != int64(records) || c.ApproxBytes != bytes {
		t.Fatalf("footprint counters %d records / %d bytes, recount %d / %d",
			c.Entries, c.ApproxBytes, records, bytes)
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

// storeDummyAbducts stores one empty abduct under each of n distinct keys.
func storeDummyAbducts(vc *VerifyCache, n int) {
	for i := 0; i < n; i++ {
		vc.store(string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('0'+i/260)), regEq{reg: "A", val: 1}, nil, abductResult{ok: true})
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

	storeDummyAbducts(vc, 10)
	c1 := vc.Counters()
	if c1.Entries != 10 || c1.ApproxBytes <= 0 {
		t.Fatalf("after 10 keys: entries %d bytes %d", c1.Entries, c1.ApproxBytes)
	}
	if c1.BytesHighWater < c1.ApproxBytes {
		t.Fatalf("high-water %d below live footprint %d", c1.BytesHighWater, c1.ApproxBytes)
	}

	// Storing an answer the memo already holds must not double-count it.
	vc.store("a00", regEq{reg: "A", val: 1}, nil, abductResult{ok: true})
	c2 := vc.Counters()
	if c2.Entries != 10 || c2.ApproxBytes != c1.ApproxBytes {
		t.Fatalf("repeated store changed footprint: %d → %d bytes", c1.ApproxBytes, c2.ApproxBytes)
	}

	// Eviction debits the live footprint but never the high-water mark.
	storeDummyAbducts(vc, defaultCacheMaxKeys*2)
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

// regs returns one regEq (value 1) per space-separated register name.
func regs(names string) []Pred {
	var ps []Pred
	for _, n := range strings.Fields(names) {
		ps = append(ps, regEq{reg: n, val: 1})
	}
	return ps
}

// answer renders a memo lookup as the table below spells it: "miss", "sat",
// or the abduct's registers in order.
func answer(res abductResult, ok bool) string {
	switch {
	case !ok:
		return "miss"
	case !res.ok:
		return "sat"
	}
	names := make([]string, len(res.preds))
	for i, p := range res.preds {
		names[i] = p.(regEq).reg
	}
	return strings.Join(names, " ")
}

// TestMonotoneMemoLookupStore pins the two monotone halves of the memo for
// target T: a Sat set answers "no abduct" for any subset of itself, an
// abduct answers any superset of itself, and stores keep the Sat sets a
// maximal antichain under the per-target cap.
func TestMonotoneMemoLookupStore(t *testing.T) {
	type step struct {
		op    string // "abduct" or "sat" stores cands as that answer; "lookup" queries cands
		cands string // register names
		want  string // lookup: answer(); stores: the record count afterwards
	}
	// The cap case fills each half past maxRecordsPerTarget with pairwise
	// incomparable records: the overflow is dropped, not swapped in.
	var capSteps []step
	for i := 0; i < maxRecordsPerTarget+2; i++ {
		capSteps = append(capSteps, step{"sat", fmt.Sprintf("S%d", i), fmt.Sprint(min(i+1, maxRecordsPerTarget))})
	}
	for i := 0; i < maxRecordsPerTarget+2; i++ {
		capSteps = append(capSteps, step{"abduct", fmt.Sprintf("A%d", i), fmt.Sprint(maxRecordsPerTarget + min(i+1, maxRecordsPerTarget))})
	}
	capSteps = append(capSteps,
		step{"lookup", fmt.Sprintf("S%d", maxRecordsPerTarget-1), "sat"},
		step{"lookup", fmt.Sprintf("S%d", maxRecordsPerTarget), "miss"},
		step{"lookup", fmt.Sprintf("A%d", maxRecordsPerTarget-1), fmt.Sprintf("A%d", maxRecordsPerTarget-1)},
		step{"lookup", fmt.Sprintf("A%d", maxRecordsPerTarget), "miss"})

	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"Sat set answers its subsets, not its supersets", []step{
			{"sat", "A B C", "1"},
			{"lookup", "A B C", "sat"},
			{"lookup", "C A", "sat"},
			{"lookup", "", "sat"},
			{"lookup", "A B C D", "miss"},
		}},
		{"abduct answers only when contained", []step{
			{"abduct", "B A", "1"},
			{"lookup", "A B C", "B A"},
			{"lookup", "A B", "B A"},
			{"lookup", "A C", "miss"},
		}},
		{"smallest contained abduct wins, ties by signature", []step{
			{"abduct", "C D E", "1"},
			{"abduct", "D C", "2"},
			{"abduct", "B A", "3"},
			{"lookup", "A B C D E", "B A"},
			{"lookup", "C D E", "D C"},
			{"lookup", "A C E D", "D C"},
			{"lookup", "B C", "miss"},
		}},
		{"subsumed Sat set is a no-op, a larger one replaces", []step{
			{"sat", "A B", "1"},
			{"sat", "C D", "2"},
			{"sat", "A", "2"},
			{"sat", "B A", "2"},
			{"sat", "A B C D", "1"},
			{"lookup", "B C", "sat"},
			{"lookup", "A B C D E", "miss"},
		}},
		{"target's own ID in cands is ignored", []step{
			{"sat", "A", "1"},
			{"lookup", "A T", "sat"},
			{"sat", "T A", "1"},
			{"lookup", "T", "sat"},
			{"abduct", "B", "2"},
			{"lookup", "T B", "B"},
		}},
		{"per-target cap holds", capSteps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vc := NewVerifyCache()
			target := regEq{reg: "T", val: 1}
			for i, s := range tc.steps {
				cands := regs(s.cands)
				var got string
				switch s.op {
				case "lookup":
					res, _, ok := vc.lookup("k", target, cands)
					got = answer(res, ok)
				case "abduct":
					vc.store("k", target, cands, abductResult{preds: cands, ok: true})
					got = fmt.Sprint(vc.Len())
				case "sat":
					vc.store("k", target, cands, abductResult{ok: false})
					got = fmt.Sprint(vc.Len())
				}
				if got != s.want {
					t.Fatalf("step %d %s %q = %q, want %q", i, s.op, s.cands, got, s.want)
				}
			}
			vc.mu.Lock()
			defer vc.mu.Unlock()
			checkFootprintLocked(t, vc)
		})
	}
}

// TestMemoTieBreakMemoryMatchesDisk: between two contained abducts of equal
// size the lowest signature answers, whichever was stored first and
// whether the memo is live or restored from its snapshot — so a disk-warm
// run repeats an in-memory warm run exactly.
func TestMemoTieBreakMemoryMatchesDisk(t *testing.T) {
	target, query := regEq{reg: "T", val: 1}, regs("A B C")
	for _, order := range []string{"B A|C A", "C A|B A"} {
		live := NewVerifyCache()
		db := openTestStore(t)
		live.bind(db)
		for _, ab := range strings.Split(order, "|") {
			live.store("k", target, query, abductResult{preds: regs(ab), ok: true})
		}
		restored := NewVerifyCache()
		restored.Restore(db.Snapshot())
		for name, vc := range map[string]*VerifyCache{"live": live, "restored": restored} {
			res, _, ok := vc.lookup("k", target, query)
			if got := answer(res, ok); got != "B A" {
				t.Fatalf("stored %q, %s memo answered %q, want \"B A\"", order, name, got)
			}
		}
	}
}

// TestConcurrentMonotoneMemo races learners storing and looking up abducts
// and Sat sets against round trips of the bound store's Snapshot through
// Restore into the same cache and a scratch one (the -race tier for the
// memo and its appends and touches). Sat sets are drawn from
// A–D and every abduct contains E, so a consistent memo never answers "no
// abduct" for a query holding E, never answers an abduct it does not
// contain, and ends with each target's Sat sets a capped antichain and its
// footprint counters equal to a recount.
func TestConcurrentMonotoneMemo(t *testing.T) {
	vc := NewVerifyCache()
	db := openTestStore(t)
	vc.bind(db)
	universe := regs("A B C D E F G H")
	pick := func(rng *rand.Rand, from []Pred) []Pred {
		var out []Pred
		for _, p := range from {
			if rng.Intn(2) == 0 {
				out = append(out, p)
			}
		}
		return out
	}
	stop := make(chan struct{})
	restorer := make(chan struct{})
	go func() {
		defer close(restorer)
		scratch := NewVerifyCache()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := db.Snapshot()
			scratch.Restore(snap)
			vc.Restore(snap)
		}
	}()
	const learners = 4
	errs := make(chan error, learners)
	for g := 0; g < learners; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(3))
				target := regEq{reg: fmt.Sprintf("T%d", rng.Intn(3)), val: 1}
				switch rng.Intn(3) {
				case 0:
					vc.store(key, target, pick(rng, universe[:4]), abductResult{ok: false})
				case 1:
					vc.store(key, target, nil, abductResult{preds: append(pick(rng, universe[:4]), universe[4]), ok: true})
				default:
					cands := pick(rng, universe)
					res, _, ok := vc.lookup(key, target, cands)
					if err := checkMemoAnswer(cands, res, ok); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(int64(g))
	}
	for g := 0; g < learners; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-restorer

	vc.mu.Lock()
	defer vc.mu.Unlock()
	checkFootprintLocked(t, vc)
	for k, e := range vc.entries {
		for tid, m := range e.targets {
			if len(m.abducts) > maxRecordsPerTarget || len(m.satSets) > maxRecordsPerTarget {
				t.Fatalf("%s/%s holds %d abducts and %d Sat sets, cap %d", k, tid, len(m.abducts), len(m.satSets), maxRecordsPerTarget)
			}
			for i, a := range m.satSets {
				for j, b := range m.satSets {
					if i != j && subsetOf(a.ids, b.ids) {
						t.Fatalf("%s/%s: Sat set %v is kept beside its superset %v", k, tid, a.ids, b.ids)
					}
				}
			}
		}
	}
}

// checkMemoAnswer checks one answer of TestConcurrentMonotoneMemo's memo.
func checkMemoAnswer(cands []Pred, res abductResult, ok bool) error {
	in := map[string]bool{}
	for _, c := range cands {
		in[c.ID()] = true
	}
	switch {
	case !ok:
		return nil
	case !res.ok && in["E==1"]:
		return fmt.Errorf("query %v answered by a Sat set, but every Sat set lacks E", cands)
	case res.ok:
		if !slices.ContainsFunc(res.preds, func(p Pred) bool { return p.ID() == "E==1" }) {
			return fmt.Errorf("query %v answered by abduct %v, but every abduct holds E", cands, res.preds)
		}
		for _, p := range res.preds {
			if !in[p.ID()] {
				return fmt.Errorf("query %v answered by abduct %v, which it does not contain", cands, res.preds)
			}
		}
	}
	return nil
}

// openTestStore opens a proof store without appends in a fresh directory.
func openTestStore(t *testing.T) *proofdb.DB {
	t.Helper()
	db, err := proofdb.Open(t.TempDir(), proofdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}
