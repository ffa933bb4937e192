package hhoudini

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"hhoudini/internal/circuit"
	"hhoudini/internal/sat"
)

// newFreshLearner builds a single-worker learner whose queries are answered
// by the fresh-solver reference instead of the pooled production path, the
// rest of the configuration (testOptions) held identical.
func newFreshLearner(sys *System, mine MineOracle) *Learner {
	l := NewLearner(sys, mine, testOptions(1))
	l.refAbduct = l.abductFresh
	return l
}

// abductFresh is the differential tests' reference backend: one new solver
// and a from-scratch Tseitin encoding per query, everything asserted as
// destructive unit clauses — the monolithic-restart behaviour the paper
// contrasts against, sharing no solver state between queries. It reaches a
// learner only through Learner.refAbduct (newFreshLearner).
func (l *Learner) abductFresh(target Pred, cands []Pred, pool *encoderPool) (abductResult, error) {
	enc, err := l.sys.newEncoder()
	if err != nil {
		return abductResult{}, err
	}
	atomic.AddInt64(&l.stats.SolverAllocs, 1)
	defer func() {
		es := enc.Stats()
		l.stats.addEncodeWork(es.Gates, es.Clauses)
	}()
	cur, err := target.Encode(enc, false)
	if err != nil {
		return abductResult{}, err
	}
	next, err := target.Encode(enc, true)
	if err != nil {
		return abductResult{}, err
	}
	enc.AssertLit(cur)
	enc.AssertLit(next.Not())

	sels := make([]sat.Lit, 0, len(cands))
	bySel := make(map[sat.Lit]Pred, len(cands))
	for _, p := range cands {
		if p.ID() == target.ID() {
			continue // already asserted unconditionally
		}
		lit, err := p.Encode(enc, false)
		if err != nil {
			return abductResult{}, err
		}
		s := enc.NewSelector()
		enc.AssertLitWhen(s, lit) // s → p
		sels = append(sels, s)
		bySel[s] = p
	}

	st, core, err := l.solveAbduction(enc.S, sels, target)
	if err != nil {
		return abductResult{}, err
	}
	if st == sat.Sat {
		return abductResult{ok: false}, nil
	}
	if l.opts.MinimizeCores {
		orderCoreForMinimization(core, func(s sat.Lit) int { return tierOf(bySel[s]) })
		l.armMinimizeBudget(enc.S)
		core = enc.S.MinimizeCore(core)
	}
	out := make([]Pred, 0, len(core))
	for _, s := range core {
		p, ok := bySel[s]
		if !ok {
			return abductResult{}, fmt.Errorf("hhoudini: core literal %v is not a selector", s)
		}
		out = append(out, p)
	}
	return abductResult{preds: out, ok: true}, nil
}

// TestIncrementalMatchesFreshOnRandomSystems is the differential test for
// the pooled backend: on a corpus of random systems, the production path
// and the fresh-solver reference must return identical verdicts, every
// invariant must pass the monolithic audit, and the pool bookkeeping must
// balance (each query either reuses a pooled solver or allocates one).
func TestIncrementalMatchesFreshOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(20250806))
	found, none := 0, 0
	for iter := 0; iter < 50; iter++ {
		sys, universe := randomSystem(t, rng)
		target := universe[rng.Intn(len(universe))].(regEq)
		init := circuit.InitSnapshot(sys.Circuit)
		if ok, _ := target.Eval(sys.Circuit, init); !ok {
			continue
		}

		lf := newFreshLearner(sys, minerOf(universe...))
		invF, err := lf.Learn([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}
		if lf.Stats().SolverAllocs != lf.Stats().Queries {
			t.Fatalf("iter %d: fresh path must allocate one solver per query: allocs=%d queries=%d",
				iter, lf.Stats().SolverAllocs, lf.Stats().Queries)
		}

		for _, workers := range []int{1, 3} {
			li := NewLearner(sys, minerOf(universe...), testOptions(workers))
			invI, err := li.Learn([]Pred{target})
			if err != nil {
				t.Fatal(err)
			}
			if (invF == nil) != (invI == nil) {
				t.Fatalf("iter %d workers=%d: backends disagree (fresh=%v incremental=%v)",
					iter, workers, invF != nil, invI != nil)
			}
			if invI != nil {
				if err := Audit(sys, invI); err != nil {
					t.Fatalf("iter %d workers=%d: incremental invariant fails audit: %v", iter, workers, err)
				}
			}
			st := li.Stats()
			queries := atomic.LoadInt64(&st.Queries)
			allocs := atomic.LoadInt64(&st.SolverAllocs)
			reuses := atomic.LoadInt64(&st.PoolReuses)
			if allocs+reuses != queries {
				t.Fatalf("iter %d workers=%d: pool accounting broken: allocs=%d reuses=%d queries=%d",
					iter, workers, allocs, reuses, queries)
			}
		}
		if invF != nil {
			found++
		} else {
			none++
		}
	}
	if found == 0 || none == 0 {
		t.Fatalf("test corpus unbalanced: found=%d none=%d", found, none)
	}
}

// TestIncrementalRecursiveMatchesFresh runs the same differential check
// through the recursive (Algorithm 1) engine.
func TestIncrementalRecursiveMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for iter := 0; iter < 30; iter++ {
		sys, universe := randomSystem(t, rng)
		target := universe[rng.Intn(len(universe))].(regEq)
		init := circuit.InitSnapshot(sys.Circuit)
		if ok, _ := target.Eval(sys.Circuit, init); !ok {
			continue
		}
		lf := newFreshLearner(sys, minerOf(universe...))
		invF, err := lf.LearnRecursive([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}
		li := NewLearner(sys, minerOf(universe...), testOptions(1))
		invI, err := li.LearnRecursive([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}
		if (invF == nil) != (invI == nil) {
			t.Fatalf("iter %d: recursive backends disagree (fresh=%v incremental=%v)",
				iter, invF != nil, invI != nil)
		}
		if invI != nil {
			if err := Audit(sys, invI); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	}
}

// TestIncrementalBacktracking exercises selector release: the Figure 1
// scenario forces X==1 into P_fail, whose pooled selector must be retracted
// without corrupting later queries on the same cone.
func TestIncrementalBacktracking(t *testing.T) {
	sys, universe, target := backtrackSystem(t)
	for _, workers := range []int{1, 4} {
		l := NewLearner(sys, minerOf(universe...), testOptions(workers))
		inv, err := l.Learn([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}
		if inv == nil {
			t.Fatalf("workers=%d: expected invariant via the {B,C} solution", workers)
		}
		got := ids(inv)
		if !got["B==1"] || !got["C==1"] || got["X==1"] {
			t.Fatalf("workers=%d: bad invariant %v", workers, got)
		}
		if err := Audit(sys, inv); err != nil {
			t.Fatal(err)
		}
		if l.Stats().Backtracks == 0 {
			t.Fatalf("workers=%d: scenario must backtrack", workers)
		}
	}
}

// TestEncoderPoolSharesCones checks the pooling policy directly:
// predicates over the same state variable share one pooled solver, and
// repeat queries on a warm cone add no new cone encoding work.
func TestEncoderPoolSharesCones(t *testing.T) {
	sys := andGateSystem(t)
	l := NewLearner(sys, minerOf(), DefaultOptions())
	pool := newEncoderPool(l.sys, l.stats)

	a0 := regEq{reg: "A", val: 0}
	a1 := regEq{reg: "A", val: 1}
	b1 := regEq{reg: "B", val: 1}

	if sig0, sig1 := coneKey(a0), coneKey(a1); sig0 != sig1 {
		t.Fatalf("same-variable predicates must share a cone: %x vs %x", sig0, sig1)
	}

	pe0, warm0, err := pool.get(a0)
	if err != nil {
		t.Fatal(err)
	}
	if warm0 {
		t.Fatal("first get must build a cold encoder")
	}
	pe1, warm1, err := pool.get(a1)
	if err != nil {
		t.Fatal(err)
	}
	if !warm1 || pe1 != pe0 {
		t.Fatal("same-cone predicate must reuse the pooled encoder")
	}
	if _, _, err := pool.get(b1); err != nil {
		t.Fatal(err)
	}
	if pool.size() != 2 {
		t.Fatalf("pool size = %d, want 2 (cones A and B)", pool.size())
	}

	// A warm cone encodes each predicate at most once: the second litFor of
	// the same predicate/frame is a memo hit with zero fresh clauses.
	if _, err := pe0.litFor(a1, false); err != nil {
		t.Fatal(err)
	}
	before := pe0.enc.Stats()
	if _, err := pe0.litFor(a1, false); err != nil {
		t.Fatal(err)
	}
	after := pe0.enc.Stats()
	if after.Clauses != before.Clauses || after.Gates != before.Gates {
		t.Fatal("repeat encoding of a memoized predicate must add no clauses")
	}
	if after.MemoHits != before.MemoHits+1 {
		t.Fatalf("MemoHits = %d, want %d", after.MemoHits, before.MemoHits+1)
	}

	// Selector release drops the predicate from the pooled index.
	selA, err := pe0.selectorFor(a1)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := pe0.selectorFor(a1); err != nil || again != selA {
		t.Fatalf("selectorFor must be stable: %v %v", again, err)
	}
	pe0.releaseSelector(a1.ID())
	if _, ok := pe0.sels[a1.ID()]; ok {
		t.Fatal("released selector still indexed")
	}
}

// TestIncrementalEncodesLessThanFresh quantifies the tentpole's win on the
// backtracking scenario: the pooled backend must finish with strictly
// fewer encoded clauses and solver allocations than the fresh backend.
func TestIncrementalEncodesLessThanFresh(t *testing.T) {
	sys, universe, target := backtrackSystem(t)

	lf := newFreshLearner(sys, minerOf(universe...))
	if inv, err := lf.Learn([]Pred{target}); err != nil || inv == nil {
		t.Fatalf("fresh: inv=%v err=%v", inv, err)
	}
	li := NewLearner(sys, minerOf(universe...), testOptions(1))
	if inv, err := li.Learn([]Pred{target}); err != nil || inv == nil {
		t.Fatalf("incremental: inv=%v err=%v", inv, err)
	}

	sf, si := lf.Stats(), li.Stats()
	if si.SolverAllocs >= sf.SolverAllocs {
		t.Fatalf("pooling must allocate fewer solvers: incremental=%d fresh=%d",
			si.SolverAllocs, sf.SolverAllocs)
	}
	if si.EncodedClauses >= sf.EncodedClauses {
		t.Fatalf("pooling must encode fewer clauses: incremental=%d fresh=%d",
			si.EncodedClauses, sf.EncodedClauses)
	}
	if si.PoolReuses == 0 {
		t.Fatal("expected warm-cone reuse on the backtracking scenario")
	}
}
