package veloct

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"hhoudini/internal/design"
	"hhoudini/internal/faultinject"
	"hhoudini/internal/hhoudini"
)

func execAnalysis(t *testing.T, opts Options) *Analysis {
	t.Helper()
	tgt, err := design.NewExecStage(design.ExecStageConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestExecStageVerifyAdd(t *testing.T) {
	a := execAnalysis(t, DefaultOptions())
	res, err := a.Verify([]string{"add"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant == nil {
		t.Fatalf("expected invariant for {add}; reason: %s", res.Reason)
	}
	t.Logf("invariant size %d, tasks %d, queries %d, backtracks %d",
		res.Invariant.Size(), res.Stats.Tasks, res.Stats.Queries, res.Stats.Backtracks)
	if !res.Invariant.Contains("Eq(valid)") {
		t.Fatal("invariant must contain the property Eq(valid)")
	}
	if err := a.Audit(res); err != nil {
		t.Fatalf("monolithic audit failed: %v", err)
	}
}

func TestExecStageMulUnsafe(t *testing.T) {
	a := execAnalysis(t, DefaultOptions())
	res, err := a.Verify([]string{"add", "mul"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant != nil {
		t.Fatal("zero-skip mul must not verify")
	}
	if res.Reason == "" {
		t.Fatal("expected a reason")
	}
	bad, err := a.SimUnsafe("mul", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Fatal("SimUnsafe should witness the mul timing leak")
	}
}

func TestExecStageSynthesize(t *testing.T) {
	a := execAnalysis(t, DefaultOptions())
	syn, err := a.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if len(syn.Safe) != 1 || syn.Safe[0] != "add" {
		t.Fatalf("safe = %v, want [add]", syn.Safe)
	}
	if len(syn.Unsafe) != 1 || syn.Unsafe[0] != "mul" {
		t.Fatalf("unsafe = %v, want [mul]", syn.Unsafe)
	}
	if syn.Result == nil || syn.Result.Invariant == nil {
		t.Fatal("synthesis must carry the proving invariant")
	}
}

func inOrderAnalysis(t *testing.T, opts Options) *Analysis {
	t.Helper()
	tgt, err := design.NewInOrder()
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// inOrderSafeSet is the expected Table 2 row for the rocket-class core:
// all single-cycle integer ops including lui and auipc; mul-family is
// unsafe (zero-skip), div/mem/control-flow unsafe.
var inOrderSafeSet = []string{
	"add", "addi", "sub", "xor", "xori", "and", "andi", "or", "ori",
	"sll", "slli", "srl", "srli", "sra", "srai",
	"lui", "auipc", "slt", "slti", "sltu", "sltiu",
}

func TestInOrderVerifySafeSet(t *testing.T) {
	a := inOrderAnalysis(t, DefaultOptions())
	res, err := a.Verify(inOrderSafeSet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant == nil {
		t.Fatalf("expected invariant; reason: %s", res.Reason)
	}
	t.Logf("InOrder invariant size %d, tasks %d, queries %d, backtracks %d, median query %v",
		res.Invariant.Size(), res.Stats.Tasks, res.Stats.Queries,
		res.Stats.Backtracks, res.Stats.MedianQueryTime())
	if err := a.Audit(res); err != nil {
		t.Fatalf("monolithic audit failed: %v", err)
	}
}

func TestInOrderMulUnsafe(t *testing.T) {
	a := inOrderAnalysis(t, DefaultOptions())
	for _, mn := range []string{"mul", "mulh", "div", "remu"} {
		bad, err := a.SimUnsafe(mn, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bad {
			t.Errorf("%s should be witnessed unsafe on the in-order core", mn)
		}
	}
	for _, mn := range []string{"add", "auipc", "lui", "srai"} {
		bad, err := a.SimUnsafe(mn, 4)
		if err != nil {
			t.Fatal(err)
		}
		if bad {
			t.Errorf("%s should not be witnessed unsafe on the in-order core", mn)
		}
	}
}

// oooSafeSet is the expected Table 2 row for the boom-class core: the
// integer ops plus the mul family (pipelined, constant latency); auipc is
// NOT verifiable (the rs1-quirk), matching the paper.
var oooSafeSet = []string{
	"add", "addi", "sub", "xor", "xori", "and", "andi", "or", "ori",
	"sll", "slli", "srl", "srli", "sra", "srai",
	"lui", "slt", "slti", "sltu", "sltiu",
	"mul", "mulh", "mulhu", "mulhsu",
}

func oooAnalysis(t *testing.T, v design.OoOVariant, opts Options) *Analysis {
	t.Helper()
	tgt, err := design.NewOoO(v)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestOoOSmallVerifySafeSet(t *testing.T) {
	a := oooAnalysis(t, design.SmallOoO, DefaultOptions())
	res, err := a.Verify(oooSafeSet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant == nil {
		t.Fatalf("expected invariant; reason: %s", res.Reason)
	}
	t.Logf("SmallOoO invariant size %d, tasks %d, queries %d, backtracks %d, median query %v, wall %v",
		res.Invariant.Size(), res.Stats.Tasks, res.Stats.Queries,
		res.Stats.Backtracks, res.Stats.MedianQueryTime(), res.Stats.WallTime)
	if err := a.Audit(res); err != nil {
		t.Fatalf("monolithic audit failed: %v", err)
	}
}

func TestOoOAuipcUnsafe(t *testing.T) {
	a := oooAnalysis(t, design.SmallOoO, DefaultOptions())
	bad, err := a.SimUnsafe("auipc", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Fatal("auipc should be witnessed unsafe on the OoO core")
	}
	good, err := a.SimUnsafe("mul", 4)
	if err != nil {
		t.Fatal(err)
	}
	if good {
		t.Fatal("mul should be constant-time on the OoO core")
	}
}

func TestOoOAllVariantsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, v := range design.OoOVariants() {
		a := oooAnalysis(t, v, DefaultOptions())
		res, err := a.Verify(oooSafeSet)
		if err != nil {
			t.Fatal(err)
		}
		if res.Invariant == nil {
			t.Fatalf("%s: expected invariant; reason: %s; failed: %v", v.Name, res.Reason, res.Failed)
		}
		t.Logf("%s: bits=%d inv=%d tasks=%d backtracks=%d wall=%v",
			v.Name, a.Target.Circuit.NumStateBits(), res.Invariant.Size(),
			res.Stats.Tasks, res.Stats.Backtracks, res.Stats.WallTime)
		if err := a.Audit(res); err != nil {
			t.Fatalf("%s: audit: %v", v.Name, err)
		}
	}
}

// TestOoOMaskingAblation: with example masking disabled, the dirty
// preamble's stale unsafe uops invalidate the InSafeUop annotations and
// the proof must fail (§5.2.1's motivation).
func TestOoOMaskingAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Examples.DisableMasking = true
	a := oooAnalysis(t, design.SmallOoO, opts)
	res, err := a.Verify(oooSafeSet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant != nil {
		t.Fatal("verification should fail without example masking")
	}
}

// TestOoOAnnotationAblation: without the expert InSafeUop annotations the
// OoO proof must fail (§6.2), while the in-order core needs none.
func TestOoOAnnotationAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableAnnotations = true
	a := oooAnalysis(t, design.SmallOoO, opts)
	res, err := a.Verify(oooSafeSet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant != nil {
		t.Fatal("OoO verification should fail without expert annotations")
	}

	inA := inOrderAnalysis(t, Options{Learner: DefaultOptions().Learner, Examples: DefaultExampleConfig(), DisableAnnotations: true})
	res2, err := inA.Verify(inOrderSafeSet)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Invariant == nil {
		t.Fatal("in-order core must verify with zero annotations")
	}
}

func TestParallelMatchesSequentialOoO(t *testing.T) {
	seq := DefaultOptions()
	par := DefaultOptions()
	par.Learner.Workers = 8
	aSeq := oooAnalysis(t, design.SmallOoO, seq)
	aPar := oooAnalysis(t, design.SmallOoO, par)
	rSeq, err := aSeq.Verify(oooSafeSet)
	if err != nil {
		t.Fatal(err)
	}
	rPar, err := aPar.Verify(oooSafeSet)
	if err != nil {
		t.Fatal(err)
	}
	if (rSeq.Invariant == nil) != (rPar.Invariant == nil) {
		t.Fatal("sequential and parallel learners disagree")
	}
	if err := aPar.Audit(rPar); err != nil {
		t.Fatal(err)
	}
}

// TestInOrderSynthesizeMatchesTable2: the synthesized safe set for the
// rocket-class core must be exactly the paper's Table 2 row shape: all
// single-cycle integer ops including auipc, with the mul/div families
// excluded.
func TestInOrderSynthesizeMatchesTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	a := inOrderAnalysis(t, DefaultOptions())
	syn, err := a.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, mn := range syn.Safe {
		got[mn] = true
	}
	for _, want := range inOrderSafeSet {
		if !got[want] {
			t.Errorf("missing %s from safe set", want)
		}
	}
	if len(syn.Safe) != len(inOrderSafeSet) {
		t.Errorf("safe set size %d, want %d (%v)", len(syn.Safe), len(inOrderSafeSet), syn.Safe)
	}
	for _, mn := range []string{"mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"} {
		if got[mn] {
			t.Errorf("%s must be unsafe on the in-order core", mn)
		}
	}
	if err := a.Audit(syn.Result); err != nil {
		t.Fatal(err)
	}
}

// TestOoOSynthesizeMatchesTable2: the boom-class row — mul family safe,
// auipc unsafe.
func TestOoOSynthesizeMatchesTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	a := oooAnalysis(t, design.SmallOoO, DefaultOptions())
	syn, err := a.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, mn := range syn.Safe {
		got[mn] = true
	}
	for _, want := range oooSafeSet {
		if !got[want] {
			t.Errorf("missing %s from safe set", want)
		}
	}
	if got["auipc"] {
		t.Error("auipc must be unverifiable on the OoO core")
	}
	for _, mn := range []string{"div", "divu", "rem", "remu"} {
		if got[mn] {
			t.Errorf("%s must be unsafe on the OoO core", mn)
		}
	}
}

// TestWorkersProduceSameInvariant: synthesis learns the same invariant,
// predicate ID for predicate ID, at one, two and four workers, each run
// with a private cache so that no run answers from another's memos.
func TestWorkersProduceSameInvariant(t *testing.T) {
	for _, mk := range []func() (*design.Target, error){
		design.NewInOrder,
		func() (*design.Target, error) { return design.NewOoO(design.SmallOoO) },
	} {
		var first []string
		for _, workers := range []int{1, 2, 4} {
			tgt, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Learner.Workers = workers
			opts.Learner.Cache = hhoudini.NewVerifyCache()
			a, err := New(tgt, opts)
			if err != nil {
				t.Fatal(err)
			}
			syn, err := a.Synthesize()
			if err != nil {
				t.Fatal(err)
			}
			if syn.Result == nil || syn.Result.Invariant == nil {
				t.Fatalf("%s workers=%d: no invariant", tgt.Name, workers)
			}
			ids := make([]string, 0, syn.Result.Invariant.Size())
			for _, p := range syn.Result.Invariant.Preds {
				ids = append(ids, p.ID())
			}
			slices.Sort(ids)
			if workers == 1 {
				first = ids
				t.Logf("%s: %d predicates", tgt.Name, len(ids))
				continue
			}
			if !slices.Equal(ids, first) {
				t.Fatalf("%s: workers=%d learned a different invariant than workers=1:\n got  %v\n want %v", tgt.Name, workers, ids, first)
			}
		}
	}
}

// TestCancelVerifyReachesLearner: a cancel that lands once the learner is
// querying (the query-delay point has fired) must stop VerifyCtx with
// context.Canceled. Every query is stretched, so the run cannot finish
// before the cancel, and the cancel cannot land in example generation:
// only a ctx that reaches LearnCtx passes.
func TestCancelVerifyReachesLearner(t *testing.T) {
	tgt, err := design.NewOoO(design.SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Learner.Cache = hhoudini.NewVerifyCache()
	a, err := New(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.QueryDelay, faultinject.Spec{Count: -1, Delay: 50 * time.Millisecond})
	defer faultinject.Reset()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := a.VerifyCtx(ctx, oooSafeSet)
		done <- err
	}()
	for faultinject.Fired(faultinject.QueryDelay) == 0 {
		select {
		case err := <-done:
			t.Fatalf("VerifyCtx returned before its first query: err = %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		t.Logf("cancelled VerifyCtx returned %v after the cancel", time.Since(start))
	case <-time.After(3 * time.Second):
		t.Fatal("VerifyCtx still running 3s after the cancel")
	}
}
