package veloct

import (
	"math/rand"
	"testing"

	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	"hhoudini/internal/hhoudini"
	"hhoudini/internal/isa"
	"hhoudini/internal/miter"
	"hhoudini/internal/sat"
)

// tinyProduct builds a miter over a 2-register toy circuit.
func tinyProduct(t *testing.T) *miter.Product {
	t.Helper()
	b := circuit.NewBuilder()
	in := b.Input("in", 4)
	x := b.Register("x", 4, 5)
	y := b.Register("y", 4, 0)
	b.SetNext("x", b.Add(x, in))
	b.SetNext("y", b.XorW(y, x))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := miter.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// snapWith builds a product snapshot with given left/right values for x, y.
func snapWith(t *testing.T, p *miter.Product, lx, rx, ly, ry uint64) circuit.Snapshot {
	t.Helper()
	s := make(circuit.Snapshot, len(p.Circuit.Regs()))
	for _, v := range []struct {
		reg  string
		l, r uint64
	}{{"x", lx, rx}, {"y", ly, ry}} {
		li, ri, err := p.RegPair(v.reg)
		if err != nil {
			t.Fatal(err)
		}
		s[li], s[ri] = v.l, v.r
	}
	return s
}

func TestPredEvalSemantics(t *testing.T) {
	p := tinyProduct(t)
	c := p.Circuit

	eq := EqPred{Reg: "x"}
	eqc := EqConstPred{Reg: "x", Val: 5}
	ecs := NewEqConstSet("InSafeUop", "x", []uint64{3, 5, 5, 3})
	iss := InSafeSetPred{Reg: "x", Pats: []isa.MaskMatch{{Mask: 0b11, Match: 0b01}}}

	cases := []struct {
		snap circuit.Snapshot
		eq   bool
		eqc  bool
		ecs  bool
		iss  bool
	}{
		{snapWith(t, p, 5, 5, 0, 0), true, true, true, true},   // x=5: 5&3==1 ✓
		{snapWith(t, p, 3, 3, 0, 0), true, false, true, false}, // 3&3==3 ✗
		{snapWith(t, p, 5, 4, 0, 0), false, false, false, false},
		{snapWith(t, p, 9, 9, 0, 0), true, false, false, true}, // 9&3==1 ✓
	}
	for i, tc := range cases {
		check := func(name string, pred hhoudini.Pred, want bool) {
			got, err := pred.Eval(c, tc.snap)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("case %d: %s = %v, want %v", i, name, got, want)
			}
		}
		check("Eq", eq, tc.eq)
		check("EqConst", eqc, tc.eqc)
		check("EqConstSet", ecs, tc.ecs)
		check("InSafeSet", iss, tc.iss)
	}

	if len(ecs.Vals) != 2 {
		t.Fatalf("EqConstSet values not deduped: %v", ecs.Vals)
	}
	for _, pred := range []hhoudini.Pred{eq, eqc, ecs, iss} {
		if pred.ID() == "" || pred.String() == "" || len(pred.Vars()) != 2 {
			t.Fatalf("metadata broken for %T", pred)
		}
	}
}

// TestPredEncodeMatchesEval: for random states, the CNF encoding of each
// predicate (current frame) must agree with its concrete evaluation.
func TestPredEncodeMatchesEval(t *testing.T) {
	p := tinyProduct(t)
	c := p.Circuit
	preds := []hhoudini.Pred{
		EqPred{Reg: "x"},
		EqPred{Reg: "y"},
		EqConstPred{Reg: "x", Val: 7},
		NewEqConstSet("InSafeUop", "y", []uint64{0, 2, 9}),
		InSafeSetPred{Reg: "x", Pats: []isa.MaskMatch{{Mask: 0b101, Match: 0b100}, {Mask: 0b1111, Match: 0}}},
	}
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 40; iter++ {
		snap := snapWith(t, p,
			rng.Uint64()&15, rng.Uint64()&15, rng.Uint64()&15, rng.Uint64()&15)

		solver := sat.New()
		enc := circuit.NewEncoder(c, solver)
		var lits []sat.Lit
		for _, pred := range preds {
			l, err := pred.Encode(enc, false)
			if err != nil {
				t.Fatal(err)
			}
			lits = append(lits, l)
		}
		// Pin the state via assumptions.
		var as []sat.Lit
		for ri, reg := range c.Regs() {
			rl, err := enc.RegLits(reg.Name)
			if err != nil {
				t.Fatal(err)
			}
			for bit, l := range rl {
				if snap[ri]&(1<<uint(bit)) != 0 {
					as = append(as, l)
				} else {
					as = append(as, l.Not())
				}
			}
		}
		if st := solver.Solve(as...); st != sat.Sat {
			t.Fatalf("iter %d: pinned state unsat", iter)
		}
		for i, pred := range preds {
			want, err := pred.Eval(c, snap)
			if err != nil {
				t.Fatal(err)
			}
			if got := solver.ModelValue(lits[i]); got != want {
				t.Fatalf("iter %d: %s encode=%v eval=%v (snap %v)", iter, pred, got, want, snap)
			}
		}
	}
}

func TestPredUnknownRegister(t *testing.T) {
	p := tinyProduct(t)
	bad := EqPred{Reg: "ghost"}
	if _, err := bad.Eval(p.Circuit, make(circuit.Snapshot, len(p.Circuit.Regs()))); err == nil {
		t.Fatal("expected error")
	}
	enc := circuit.NewEncoder(p.Circuit, sat.New())
	if _, err := bad.Encode(enc, false); err == nil {
		t.Fatal("expected error")
	}
}

func TestMinerAlgorithm2(t *testing.T) {
	p := tinyProduct(t)
	// Examples: x equal and constant 5; y equal but varying.
	examples := []circuit.Snapshot{
		snapWith(t, p, 5, 5, 1, 1),
		snapWith(t, p, 5, 5, 2, 2),
	}
	pats := []isa.MaskMatch{{Mask: 0b11, Match: 0b01}} // 5&3==1 ✓; 1&3,2&3 ✗ for y
	rules := []design.UopRule{{Reg: "y", Values: []uint64{1, 2}}}
	m, err := NewMiner(p, examples, pats, rules)
	if err != nil {
		t.Fatal(err)
	}

	preds, err := m.Mine(EqPred{Reg: "x"}, []string{"l::x", "r::x", "l::y", "r::y"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, pr := range preds {
		got[pr.ID()] = true
	}
	for _, want := range []string{"Eq(x)", "EqConst(x,0x5)", "InSafeSet(x)", "Eq(y)"} {
		if !got[want] {
			t.Errorf("missing %s in %v", want, got)
		}
	}
	if got["EqConst(y,0x1)"] || got["EqConst(y,0x2)"] {
		t.Error("EqConst(y) must not be mined: y varies")
	}
	if got["InSafeSet(y)"] {
		t.Error("InSafeSet(y) must not be mined: y fails the patterns")
	}
	// The expert rule on y IS consistent ({1,2}).
	if !got["InSafeUop(y,{0x1,0x2})"] {
		t.Errorf("expert rule should be mined: %v", got)
	}

	// Universe covers every register.
	uni, err := m.Universe()
	if err != nil {
		t.Fatal(err)
	}
	if len(uni) < len(preds) {
		t.Fatalf("universe %d smaller than slice mining %d", len(uni), len(preds))
	}

	// A differing register yields no predicates.
	examples2 := []circuit.Snapshot{snapWith(t, p, 1, 2, 0, 0)}
	m2, err := NewMiner(p, examples2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	preds2, err := m2.Mine(EqPred{Reg: "x"}, []string{"l::x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds2) != 0 {
		t.Fatalf("expected no predicates for differing register, got %v", preds2)
	}
}
