package miter

import (
	"math/rand"
	"testing"

	"hhoudini/internal/circuit"
)

func buildBase(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	in := b.Input("in", 8)
	x := b.Register("x", 8, 1)
	y := b.Register("y", 8, 0)
	b.SetNext("x", b.Add(x, in))
	b.SetNext("y", b.XorW(y, x))
	b.Name("sum", b.Add(x, y))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildProduct(t *testing.T) {
	base := buildBase(t)
	p, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Circuit.NumStateBits(), 2*base.NumStateBits(); got != want {
		t.Fatalf("product state bits = %d, want %d", got, want)
	}
	if got, want := p.Circuit.NumInputBits(), base.NumInputBits(); got != want {
		t.Fatalf("product input bits = %d, want %d (shared)", got, want)
	}
	for _, n := range []string{"l::x", "r::x", "l::y", "r::y"} {
		if _, ok := p.Circuit.Reg(n); !ok {
			t.Fatalf("missing product register %q", n)
		}
	}
	for _, n := range []string{"l::sum", "r::sum"} {
		if _, ok := p.Circuit.Wire(n); !ok {
			t.Fatalf("missing product wire %q", n)
		}
	}
}

// TestProductCopiesRunIndependently: the two copies stepped together with
// shared inputs must match two separate base simulations.
func TestProductCopiesRunIndependently(t *testing.T) {
	base := buildBase(t)
	p, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))

	lSnap := circuit.Snapshot{rng.Uint64() & 255, rng.Uint64() & 255}
	rSnap := circuit.Snapshot{rng.Uint64() & 255, rng.Uint64() & 255}

	simL := circuit.NewSim(base)
	simR := circuit.NewSim(base)
	simL.LoadSnapshot(lSnap)
	simR.LoadSnapshot(rSnap)

	// pairs[i] are the product indices of base register i's two copies.
	var pairs [][2]int
	for _, name := range p.BaseRegs() {
		li, ri, err := p.RegPair(name)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, [2]int{li, ri})
	}
	simP := circuit.NewSim(p.Circuit)
	paired := make(circuit.Snapshot, len(p.Circuit.Regs()))
	for i, pr := range pairs {
		paired[pr[0]], paired[pr[1]] = lSnap[i], rSnap[i]
	}
	simP.LoadSnapshot(paired)

	for cycle := 0; cycle < 30; cycle++ {
		iv := rng.Uint64() & 255
		in := circuit.Inputs{"in": iv}
		simL.Step(in)
		simR.Step(in)
		simP.Step(in)

		snap := simP.Snapshot()
		gotL, gotR := make(circuit.Snapshot, len(pairs)), make(circuit.Snapshot, len(pairs))
		for i, pr := range pairs {
			gotL[i], gotR[i] = snap[pr[0]], snap[pr[1]]
		}
		if !gotL.Equal(simL.Snapshot()) {
			t.Fatalf("cycle %d: left copy diverged: %v vs %v", cycle, gotL, simL.Snapshot())
		}
		if !gotR.Equal(simR.Snapshot()) {
			t.Fatalf("cycle %d: right copy diverged: %v vs %v", cycle, gotR, simR.Snapshot())
		}
	}
}

func TestNameHelpers(t *testing.T) {
	if Left("x") != "l::x" || Right("x") != "r::x" {
		t.Fatal("prefix helpers wrong")
	}
	if n, ok := BaseName("l::x"); n != "x" || !ok {
		t.Fatal("BaseName(l::x)")
	}
	if n, ok := BaseName("r::abc"); n != "abc" || !ok {
		t.Fatal("BaseName(r::abc)")
	}
	if n, ok := BaseName("plain"); n != "plain" || ok {
		t.Fatal("BaseName(plain)")
	}
}

func TestRegPairAndErrors(t *testing.T) {
	base := buildBase(t)
	p, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	l, r, err := p.RegPair("x")
	if err != nil {
		t.Fatal(err)
	}
	if l == r {
		t.Fatal("pair indices must differ")
	}
	if _, _, err := p.RegPair("ghost"); err == nil {
		t.Fatal("expected error for unknown base register")
	}
	regs := p.BaseRegs()
	if len(regs) != 2 || regs[0] != "x" || regs[1] != "y" {
		t.Fatalf("BaseRegs = %v", regs)
	}
}

// TestSharedInputsAreShared: a predicate true in the left copy whenever the
// input is mirrored must hold because inputs are literally the same nodes.
func TestSharedInputsAreShared(t *testing.T) {
	b := circuit.NewBuilder()
	in := b.Input("i", 4)
	r := b.Register("r", 4, 0)
	b.SetNext("r", in)
	_ = r
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	sim := circuit.NewSim(p.Circuit)
	for i := 0; i < 10; i++ {
		sim.Step(circuit.Inputs{"i": uint64(i * 3)})
		l, _ := sim.PeekReg("l::r")
		rr, _ := sim.PeekReg("r::r")
		if l != rr {
			t.Fatalf("shared input produced different register values %d vs %d", l, rr)
		}
	}
}
