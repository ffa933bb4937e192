package hhoudini

import (
	"testing"

	"hhoudini/internal/circuit"
)

// embeddedBacktrackSystem builds the backtrack cone (T, A, B, C, X over the
// single input "in") either alone or surrounded by unrelated machinery that
// is declared FIRST — so global node ids, register order, and the
// whole-circuit fingerprint all differ between the two designs while the
// cone itself stays isomorphic. The input interface is identical (cone keys
// hash it), which is the realistic cross-design shape: same ports, more
// internal state.
func embeddedBacktrackSystem(t *testing.T, junk bool) (*System, []Pred, Pred) {
	t.Helper()
	b := circuit.NewBuilder()
	in := b.Input("in", 1)
	if junk {
		j0 := b.Register("zz_j0", 1, 0)
		j1 := b.Register("zz_j1", 1, 1)
		b.SetNext("zz_j0", circuit.Word{b.Xor2(j0[0], in[0])})
		b.SetNext("zz_j1", circuit.Word{b.Or2(j1[0], b.And2(j0[0], in[0]))})
	}
	b.Register("T", 1, 1)
	A := b.Register("A", 1, 1)
	B := b.Register("B", 1, 1)
	C := b.Register("C", 1, 1)
	X := b.Register("X", 1, 1)
	b.SetNext("T", circuit.Word{b.Or2(b.And2(A[0], B[0]), b.And2(B[0], C[0]))})
	b.SetNext("A", X)
	b.SetNext("B", B)
	b.SetNext("C", C)
	b.SetNext("X", in)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := &System{Circuit: c}
	universe := []Pred{
		regEq{reg: "T", val: 1}, regEq{reg: "A", val: 1}, regEq{reg: "B", val: 1},
		regEq{reg: "C", val: 1}, regEq{reg: "X", val: 1},
	}
	return sys, universe, regEq{reg: "T", val: 1}
}

// TestConeCacheCrossDesignTransfer is cone-level keying's behavioral
// contract: a cache populated by learning on one design answers queries on
// a second, structurally different design whose target cone is isomorphic.
func TestConeCacheCrossDesignTransfer(t *testing.T) {
	plain, universe, target := embeddedBacktrackSystem(t, false)
	junk, junkUniverse, junkTarget := embeddedBacktrackSystem(t, true)

	// Precondition: the designs must be distinguishable at whole-circuit
	// granularity, or the test proves nothing.
	if plain.Circuit.Fingerprint() == junk.Circuit.Fingerprint() {
		t.Fatal("designs share a whole-circuit fingerprint; the embedding is vacuous")
	}
	// And indistinguishable at cone granularity over the target's support.
	support := []string{"T", "A", "B", "C", "X"}
	kp, okP := plain.ConeCacheKey(support)
	kj, okJ := junk.ConeCacheKey(support)
	if !okP || !okJ {
		t.Fatal("cone keys must be cacheable for unconstrained systems")
	}
	if kp != kj {
		t.Fatalf("isomorphic cones keyed differently:\n plain %s\n junk  %s", kp, kj)
	}

	// Reference: what a cold learner finds on the junk design.
	cold := NewLearner(junk, minerOf(junkUniverse...), coldOptions())
	invCold, err := cold.Learn([]Pred{junkTarget})
	if err != nil {
		t.Fatal(err)
	}
	if invCold == nil {
		t.Fatal("cold run must find the {B,C} invariant")
	}

	// Warm path: populate the cache on the plain design...
	cache := NewVerifyCache()
	l1 := NewLearner(plain, minerOf(universe...), warmOptions(cache))
	if inv, err := l1.Learn([]Pred{target}); err != nil || inv == nil {
		t.Fatalf("plain-design run: inv=%v err=%v", inv, err)
	}
	if cache.Len() == 0 {
		t.Fatal("plain-design learner memoized nothing")
	}

	// ...then learn the junk design from the same cache.
	l2 := NewLearner(junk, minerOf(junkUniverse...), warmOptions(cache))
	invWarm, err := l2.Learn([]Pred{junkTarget})
	if err != nil {
		t.Fatal(err)
	}
	if invWarm == nil {
		t.Fatal("warm run must find an invariant")
	}
	st := l2.Stats()
	if st.CacheVerdictHits+st.CacheAbductHits == 0 {
		t.Fatalf("no cross-design memo hits (verdicts=%d abducts=%d); cone transfer is dead",
			st.CacheVerdictHits, st.CacheAbductHits)
	}

	// Soundness: the transferred answers must reproduce the cold invariant
	// exactly and survive an independent audit on the junk design's own
	// encoder.
	gc, gw := ids(invCold), ids(invWarm)
	if len(gc) != len(gw) {
		t.Fatalf("invariants differ: cold %v warm %v", gc, gw)
	}
	for id := range gc {
		if !gw[id] {
			t.Fatalf("warm invariant %v missing %s (cold %v)", gw, id, gc)
		}
	}
	if err := Audit(junk, invWarm); err != nil {
		t.Fatalf("transferred invariant fails audit: %v", err)
	}
}

// TestConeCacheDifferentialRandomSystems repeats the cache soundness sweep
// (coldWarmDifferential) on a second corpus, counting both cone-keyed memos.
func TestConeCacheDifferentialRandomSystems(t *testing.T) {
	if verdictHits, abductHits := coldWarmDifferential(t, 20250808); verdictHits+abductHits == 0 {
		t.Fatal("second warm runs never hit a cone-keyed memo; differential is vacuous")
	}
}

// TestConeCachePersistenceAcrossDesigns drives the v2 coneabd records end
// to end: learn design A into an on-disk store, close every proof store
// (simulating process exit), then learn structurally different design B in
// a fresh cache bound to the same directory — the warm answers must come
// from disk.
func TestConeCachePersistenceAcrossDesigns(t *testing.T) {
	dir := t.TempDir()
	defer CloseProofDBs()

	plain, universe, target := embeddedBacktrackSystem(t, false)
	o1 := warmOptions(NewVerifyCache())
	o1.CacheDir = dir
	l1 := NewLearner(plain, minerOf(universe...), o1)
	if inv, err := l1.Learn([]Pred{target}); err != nil || inv == nil {
		t.Fatalf("first process: inv=%v err=%v", inv, err)
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}

	junk, junkUniverse, junkTarget := embeddedBacktrackSystem(t, true)
	o2 := warmOptions(NewVerifyCache())
	o2.CacheDir = dir
	l2 := NewLearner(junk, minerOf(junkUniverse...), o2)
	invWarm, err := l2.Learn([]Pred{junkTarget})
	if err != nil {
		t.Fatal(err)
	}
	if invWarm == nil {
		t.Fatal("warm-from-disk run must find an invariant")
	}
	st := l2.Stats()
	if st.CacheDiskLoads == 0 {
		t.Fatal("second process loaded nothing from the proof store")
	}
	if st.CacheDiskHits == 0 {
		t.Fatalf("no disk-backed hits on the second design (verdicts=%d abducts=%d)",
			st.CacheVerdictHits, st.CacheAbductHits)
	}
	if got := ids(invWarm); !got["B==1"] || !got["C==1"] {
		t.Fatalf("disk-warmed invariant %v must contain B==1 and C==1", got)
	}
	if err := Audit(junk, invWarm); err != nil {
		t.Fatalf("disk-warmed invariant fails audit: %v", err)
	}
}
