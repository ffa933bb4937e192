package veloct

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	"hhoudini/internal/miter"
)

func TestExampleGenDeterministic(t *testing.T) {
	tgt, err := design.NewExecStage(design.ExecStageConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := miter.Build(tgt.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExampleConfig()
	g1, err := newExampleGen(tgt, prod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := newExampleGen(tgt, prod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := g1.GenerateCtx(context.Background(), []string{"add"})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := g2.GenerateCtx(context.Background(), []string{"add"})
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != len(e2) {
		t.Fatalf("lengths differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if !e1[i].Equal(e2[i]) {
			t.Fatalf("example %d differs across identical seeds", i)
		}
	}
}

func TestExampleGenPropertyHoldsOnAllExamples(t *testing.T) {
	tgt, err := design.NewInOrder()
	if err != nil {
		t.Fatal(err)
	}
	prod, err := miter.Build(tgt.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newExampleGen(tgt, prod, DefaultExampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	examples, err := g.GenerateCtx(context.Background(), []string{"add", "xor", "lui"})
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) < 50 {
		t.Fatalf("too few examples: %d", len(examples))
	}
	target := EqPred{Reg: tgt.Observable[0]}
	for i, e := range examples {
		ok, err := target.Eval(prod.Circuit, e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("example %d violates the property", i)
		}
	}
}

func TestExampleGenUnsafeDetected(t *testing.T) {
	tgt, err := design.NewExecStage(design.ExecStageConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := miter.Build(tgt.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	// Force a zero-skip divergence: one copy's operand is zero. Secrets
	// are random per run, so try seeds until one produces a zero/non-zero
	// split — seed 1 with several runs per instr reliably includes one
	// since 8-bit operands are drawn from 16-bit randoms masked to width.
	cfg := DefaultExampleConfig()
	cfg.RunsPerInstr = 50
	g, err := newExampleGen(tgt, prod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Directly poke a zero operand to make the witness deterministic.
	sim := circuit.NewSim(prod.Circuit)
	snap := sim.Snapshot()
	l1, r1, _ := prod.RegPair("op1")
	l2, r2, _ := prod.RegPair("op2")
	snap[l1], snap[r1] = 0, 3 // zero-skip fires only on the left
	snap[l2], snap[r2] = 7, 7 // second operand non-zero on both sides
	sim.LoadSnapshot(snap)
	sim.Step(circuit.Inputs{"opcode_in": design.ExecMul})
	diverged := false
	for i := 0; i < 15; i++ {
		sim.Step(circuit.Inputs{"opcode_in": 0})
		cur := sim.Snapshot()
		lv, rv, _ := prod.RegPair("valid")
		if cur[lv] != cur[rv] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("zero-skip divergence not observable in product simulation")
	}
	// And the generator itself flags mul unsafe (over many random runs the
	// 8-bit operands hit zero or the generator-independent SimUnsafe path
	// covers it; accept either signal).
	if _, err := g.GenerateCtx(context.Background(), []string{"mul"}); err == nil {
		a, err2 := New(tgt, DefaultOptions())
		if err2 != nil {
			t.Fatal(err2)
		}
		bad, err2 := a.SimUnsafe("mul", 0)
		if err2 != nil {
			t.Fatal(err2)
		}
		if !bad {
			t.Fatal("neither example generation nor SimUnsafe witnessed mul's leak")
		}
	} else if _, ok := err.(ErrUnsafe); !ok {
		t.Fatalf("unexpected error type: %v", err)
	}
}

func TestExampleMaskingCleansResidue(t *testing.T) {
	tgt, err := design.NewOoO(design.SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := miter.Build(tgt.Circuit)
	if err != nil {
		t.Fatal(err)
	}

	gen := func(maskOff bool) []circuit.Snapshot {
		cfg := DefaultExampleConfig()
		cfg.DisableMasking = maskOff
		g, err := newExampleGen(tgt, prod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := g.GenerateCtx(context.Background(), []string{"add"})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	masked := gen(false)
	unmasked := gen(true)

	// Unmasked examples must contain unsafe residue in some invalid IQ/ROB
	// entry (from the dirty preamble); masked examples must not.
	residue := func(examples []circuit.Snapshot) bool {
		rules := tgt.Masks
		for _, e := range examples {
			for _, rule := range rules {
				for _, side := range []func(string) string{miter.Left, miter.Right} {
					vIdx := prod.Circuit.RegIndex(side(rule.ValidReg))
					if e[vIdx] != 0 {
						continue
					}
					for _, f := range rule.Fields {
						fi := prod.Circuit.RegIndex(side(f))
						if e[fi] != prod.Circuit.Regs()[fi].Init {
							return true
						}
					}
				}
			}
		}
		return false
	}
	if residue(masked) {
		t.Fatal("masked examples still contain invalid-entry residue")
	}
	if !residue(unmasked) {
		t.Fatal("unmasked examples contain no residue; the masking ablation is vacuous")
	}
}

// TestSoundnessDifferential is DESIGN.md's randomized soundness property:
// programs composed of verified-safe instructions, run from random
// equal-modulo-secret states, must produce indistinguishable observable
// traces.
func TestSoundnessDifferential(t *testing.T) {
	for _, mk := range []func() (*design.Target, []string, error){
		func() (*design.Target, []string, error) {
			tgt, err := design.NewInOrder()
			return tgt, inOrderSafeSet, err
		},
		func() (*design.Target, []string, error) {
			tgt, err := design.NewOoO(design.SmallOoO)
			return tgt, oooSafeSet, err
		},
	} {
		tgt, safe, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		prod, err := miter.Build(tgt.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(777))
		for trial := 0; trial < 20; trial++ {
			sim := circuit.NewSim(prod.Circuit)
			snap := sim.Snapshot()
			for _, sec := range tgt.SecretRegs {
				li, ri, err := prod.RegPair(sec)
				if err != nil {
					t.Fatal(err)
				}
				snap[li] = rng.Uint64() & 0xffff
				snap[ri] = rng.Uint64() & 0xffff
			}
			sim.LoadSnapshot(snap)

			// A random program over the safe set with random NOP spacing.
			prog := make([]uint64, 0, 60)
			for len(prog) < 50 {
				if rng.Intn(2) == 0 {
					prog = append(prog, tgt.Nop)
					continue
				}
				mn := safe[rng.Intn(len(safe))]
				w, err := tgt.Encode(mn, rng)
				if err != nil {
					t.Fatal(err)
				}
				prog = append(prog, w)
			}
			for i := 0; i < tgt.MaxLatency+4; i++ {
				prog = append(prog, tgt.Nop)
			}
			for cyc, w := range prog {
				if err := sim.Step(circuit.Inputs{tgt.InstrPort: w}); err != nil {
					t.Fatal(err)
				}
				cur := sim.Snapshot()
				for _, obs := range tgt.Observable {
					li, ri, err := prod.RegPair(obs)
					if err != nil {
						t.Fatal(err)
					}
					if cur[li] != cur[ri] {
						t.Fatalf("%s trial %d: observable %q diverged at cycle %d",
							tgt.Name, trial, obs, cyc)
					}
				}
			}
		}
	}
}

type oracleDesign struct {
	name     string
	mk       func() (*design.Target, error)
	safe     []string
	mustFail []string // a proposal whose example generation witnesses a leak
	failRuns int      // RunsPerInstr that makes it do so
}

func oracleDesigns() []oracleDesign {
	return []oracleDesign{
		// mul leaks only when a random 8-bit operand is zero on one side.
		{"ExecStage", func() (*design.Target, error) { return design.NewExecStage(design.ExecStageConfig{Width: 8}) },
			[]string{"add"}, []string{"add", "mul"}, 300},
		{"InOrder", design.NewInOrder, inOrderSafeSet, append(append([]string(nil), inOrderSafeSet...), "div"), 3},
		{"SmallOoO", func() (*design.Target, error) { return design.NewOoO(design.SmallOoO) },
			oooSafeSet, append(append([]string(nil), oooSafeSet...), "div"), 3},
	}
}

// TestGenerateMatchesScalarOracle: the lane-parallel generator returns the
// scalar loop's example set snapshot for snapshot, and the same ErrUnsafe
// (instruction and cycle) on must-fail proposals — across designs, seeds,
// a batch boundary inside one instruction's runs, no dirty preamble and no
// masking.
func TestGenerateMatchesScalarOracle(t *testing.T) {
	all := func(d oracleDesign) []string { return d.safe }
	prefix := func(n int) func(oracleDesign) []string {
		return func(d oracleDesign) []string { return d.safe[:min(n, len(d.safe))] }
	}
	variants := []struct {
		name string
		cfg  func(*ExampleConfig)
		safe func(oracleDesign) []string
		fail bool
	}{
		{"safe/seed1", func(c *ExampleConfig) { c.Seed = 1 }, all, false},
		{"safe/seed2", func(c *ExampleConfig) { c.Seed = 2 }, all, false},
		{"fail/seed1", func(c *ExampleConfig) { c.Seed = 1 }, func(d oracleDesign) []string { return d.mustFail }, true},
		{"fail/seed2", func(c *ExampleConfig) { c.Seed = 2 }, func(d oracleDesign) []string { return d.mustFail }, true},
		{"runs30", func(c *ExampleConfig) { c.RunsPerInstr = 30 }, prefix(4), false},
		{"nopreamble", func(c *ExampleConfig) { c.DirtyPreamble = false }, prefix(6), false},
		{"nomasking", func(c *ExampleConfig) { c.DisableMasking = true }, prefix(6), false},
	}
	for _, d := range oracleDesigns() {
		tgt, err := d.mk()
		if err != nil {
			t.Fatal(err)
		}
		prod, err := miter.Build(tgt.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			t.Run(d.name+"/"+v.name, func(t *testing.T) {
				cfg := DefaultExampleConfig()
				if v.fail {
					cfg.RunsPerInstr = d.failRuns
				}
				v.cfg(&cfg)
				safe := v.safe(d)
				gen := func() *exampleGen {
					g, err := newExampleGen(tgt, prod, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
				want, wantErr := scalarGenerate(context.Background(), gen(), safe)
				got, gotErr := gen().GenerateCtx(context.Background(), safe)
				if v.fail {
					var wu, gu ErrUnsafe
					if !errors.As(wantErr, &wu) {
						t.Fatalf("oracle: err = %v, want ErrUnsafe", wantErr)
					}
					if !errors.As(gotErr, &gu) || gu != wu {
						t.Fatalf("err = %v, oracle %v", gotErr, wantErr)
					}
					return
				}
				if wantErr != nil || gotErr != nil {
					t.Fatalf("err = %v, oracle %v", gotErr, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("%d examples, oracle %d", len(got), len(want))
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("example %d of %d differs from the oracle", i, len(want))
					}
				}
			})
		}
	}
}

// TestSimUnsafeMatchesScalar: SimUnsafe's lane verdict equals the scalar
// trial loop's on every candidate instruction.
func TestSimUnsafeMatchesScalar(t *testing.T) {
	for _, d := range oracleDesigns()[1:] {
		tgt, err := d.mk()
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(tgt, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		unsafe := 0
		for _, mn := range tgt.CandidateSafe {
			for _, extra := range []int{0, 4} {
				want, wantErr := scalarSimUnsafe(a, mn, extra)
				got, gotErr := a.SimUnsafe(mn, extra)
				if got != want || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s %s extra=%d: SimUnsafe = %v, %v; scalar %v, %v", d.name, mn, extra, got, gotErr, want, wantErr)
				}
				if got && extra == 4 {
					unsafe++
				}
			}
		}
		if unsafe == 0 {
			t.Fatalf("%s: no candidate witnessed a leak; the comparison is vacuous", d.name)
		}
	}
}

// TestCancelExampleGeneration: a context cancelled before or during
// generation makes it return context.Canceled and no examples.
func TestCancelExampleGeneration(t *testing.T) {
	tgt, err := design.NewOoO(design.SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := miter.Build(tgt.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExampleConfig()
	cfg.RunsPerInstr = 400
	gen := func() *exampleGen {
		g, err := newExampleGen(tgt, prod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ex, err := gen().GenerateCtx(ctx, oooSafeSet); !errors.Is(err, context.Canceled) || ex != nil {
		t.Fatalf("pre-cancelled: %d examples, err = %v; want none and context.Canceled", len(ex), err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	ex, err := gen().GenerateCtx(ctx, oooSafeSet)
	if !errors.Is(err, context.Canceled) || ex != nil {
		t.Fatalf("cancelled mid-run: %d examples, err = %v; want none and context.Canceled", len(ex), err)
	}
	t.Logf("cancelled generation returned after %v", time.Since(start))
}
