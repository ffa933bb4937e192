package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// combo builds a combinational test harness: two 16-bit inputs a, b and one
// single-bit input s, with every operation under test exposed as a wire.
func combo(t *testing.T) (*Circuit, *Sim) {
	t.Helper()
	b := NewBuilder()
	a := b.Input("a", 16)
	bb := b.Input("b", 16)
	sel := b.Input("s", 1)
	amt := b.Input("amt", 5)

	b.Name("and", b.AndW(a, bb))
	b.Name("or", b.OrW(a, bb))
	b.Name("xor", b.XorW(a, bb))
	b.Name("not", b.NotW(a))
	b.Name("add", b.Add(a, bb))
	b.Name("sub", b.Sub(a, bb))
	b.Name("inc", b.Inc(a))
	b.Name("mul", b.Mul(a, bb))
	b.Name("mux", b.MuxW(sel[0], a, bb))
	b.Name("eq", Word{b.Eq(a, bb)})
	b.Name("ne", Word{b.Ne(a, bb)})
	b.Name("ult", Word{b.Ult(a, bb)})
	b.Name("ule", Word{b.Ule(a, bb)})
	b.Name("slt", Word{b.Slt(a, bb)})
	b.Name("iszero", Word{b.IsZero(a)})
	b.Name("shl3", b.ShlC(a, 3))
	b.Name("lshr3", b.LshrC(a, 3))
	b.Name("ashr3", b.AshrC(a, 3))
	b.Name("shl", b.Shl(a, amt))
	b.Name("lshr", b.Lshr(a, amt))
	b.Name("ashr", b.Ashr(a, amt))
	b.Name("zext", b.ZeroExt(b.Extract(a, 7, 0), 16))
	b.Name("sext", b.SignExt(b.Extract(a, 7, 0), 16))
	b.Name("redor", Word{b.RedOr(a)})
	b.Name("redand", Word{b.RedAnd(a)})
	b.Name("redxor", Word{b.RedXor(a)})
	b.Name("concat", b.Concat(b.Extract(a, 7, 0), b.Extract(bb, 7, 0)))
	b.Name("eqconst", Word{b.EqConst(a, 0x1234)})

	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, NewSim(c)
}

func TestWordOpsAgainstGoSemantics(t *testing.T) {
	_, sim := combo(t)
	rng := rand.New(rand.NewSource(42))
	const mask16 = 0xffff
	for iter := 0; iter < 500; iter++ {
		a := rng.Uint64() & mask16
		bb := rng.Uint64() & mask16
		s := rng.Uint64() & 1
		amt := rng.Uint64() & 31
		if err := sim.SetInputs(Inputs{"a": a, "b": bb, "s": s, "amt": amt}); err != nil {
			t.Fatal(err)
		}
		peek := func(name string) uint64 {
			v, err := sim.PeekWire(name)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		b2u := func(cond bool) uint64 {
			if cond {
				return 1
			}
			return 0
		}
		sext8 := func(v uint64) uint64 {
			v &= 0xff
			if v&0x80 != 0 {
				v |= 0xff00
			}
			return v
		}
		shl := func(v, k uint64) uint64 {
			if k >= 16 {
				return 0
			}
			return (v << k) & mask16
		}
		lshr := func(v, k uint64) uint64 {
			if k >= 16 {
				return 0
			}
			return v >> k
		}
		ashr := func(v, k uint64) uint64 {
			sv := int64(int16(v))
			if k >= 16 {
				k = 15
				if sv < 0 {
					return mask16
				}
				return 0
			}
			return uint64(sv>>k) & mask16
		}
		parity := func(v uint64) uint64 {
			var p uint64
			for i := 0; i < 16; i++ {
				p ^= (v >> uint(i)) & 1
			}
			return p
		}
		cases := map[string]uint64{
			"and":     a & bb,
			"or":      a | bb,
			"xor":     a ^ bb,
			"not":     ^a & mask16,
			"add":     (a + bb) & mask16,
			"sub":     (a - bb) & mask16,
			"inc":     (a + 1) & mask16,
			"mul":     (a * bb) & mask16,
			"mux":     map[uint64]uint64{1: a, 0: bb}[s],
			"eq":      b2u(a == bb),
			"ne":      b2u(a != bb),
			"ult":     b2u(a < bb),
			"ule":     b2u(a <= bb),
			"slt":     b2u(int16(a) < int16(bb)),
			"iszero":  b2u(a == 0),
			"shl3":    (a << 3) & mask16,
			"lshr3":   a >> 3,
			"ashr3":   uint64(int16(a)>>3) & mask16,
			"shl":     shl(a, amt),
			"lshr":    lshr(a, amt),
			"ashr":    ashr(a, amt),
			"zext":    a & 0xff,
			"sext":    sext8(a),
			"redor":   b2u(a != 0),
			"redand":  b2u(a == mask16),
			"redxor":  parity(a),
			"concat":  (a & 0xff) | ((bb & 0xff) << 8),
			"eqconst": b2u(a == 0x1234),
		}
		for name, want := range cases {
			if got := peek(name); got != want {
				t.Fatalf("iter %d (a=%#x b=%#x s=%d amt=%d): %s = %#x, want %#x",
					iter, a, bb, s, amt, name, got, want)
			}
		}
	}
}

func TestCounterCircuit(t *testing.T) {
	b := NewBuilder()
	en := b.Input("en", 1)
	cnt := b.Register("cnt", 8, 0)
	b.SetNext("cnt", b.MuxW(en[0], b.Inc(cnt), cnt))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(c)
	for i := 0; i < 5; i++ {
		if err := sim.Step(Inputs{"en": 1}); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := sim.PeekReg("cnt"); v != 5 {
		t.Fatalf("cnt = %d, want 5", v)
	}
	for i := 0; i < 3; i++ {
		sim.Step(Inputs{"en": 0})
	}
	if v, _ := sim.PeekReg("cnt"); v != 5 {
		t.Fatalf("cnt = %d, want 5 (disabled)", v)
	}
	// Wraparound.
	sim.PokeReg("cnt", 255)
	sim.Step(Inputs{"en": 1})
	if v, _ := sim.PeekReg("cnt"); v != 0 {
		t.Fatalf("cnt = %d, want 0 after wrap", v)
	}
}

func TestRegisterInitValues(t *testing.T) {
	b := NewBuilder()
	r := b.Register("r", 16, 0xBEEF)
	b.SetNext("r", r)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(c)
	if v, _ := sim.PeekReg("r"); v != 0xBEEF {
		t.Fatalf("init = %#x, want 0xBEEF", v)
	}
	sim.Step(nil)
	if v, _ := sim.PeekReg("r"); v != 0xBEEF {
		t.Fatalf("held = %#x, want 0xBEEF", v)
	}
}

func TestBuilderErrors(t *testing.T) {
	check := func(name string, f func(b *Builder)) {
		b := NewBuilder()
		f(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: expected Build error", name)
		}
	}
	check("missing next", func(b *Builder) { b.Register("r", 4, 0) })
	check("duplicate register", func(b *Builder) {
		b.Register("r", 4, 0)
		r := b.Register("r", 4, 0)
		b.SetNext("r", r)
	})
	check("duplicate input", func(b *Builder) {
		b.Input("i", 4)
		b.Input("i", 4)
	})
	check("width mismatch", func(b *Builder) {
		r := b.Register("r", 4, 0)
		b.SetNext("r", b.Concat(r, r))
	})
	check("double SetNext", func(b *Builder) {
		r := b.Register("r", 4, 0)
		b.SetNext("r", r)
		b.SetNext("r", r)
	})
	check("unknown SetNext", func(b *Builder) { b.SetNext("ghost", Word{False}) })
	check("reg/input collision", func(b *Builder) {
		b.Input("x", 4)
		r := b.Register("x", 4, 0)
		b.SetNext("x", r)
	})
	check("zero width register", func(b *Builder) {
		r := b.Register("r", 0, 0)
		b.SetNext("r", r)
	})
	check("bad extract", func(b *Builder) {
		r := b.Register("r", 4, 0)
		b.SetNext("r", r)
		b.Extract(r, 9, 0)
	})
}

func TestStructuralHashing(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 1)
	y := b.Input("y", 1)
	g1 := b.And2(x[0], y[0])
	g2 := b.And2(y[0], x[0]) // commuted
	if g1 != g2 {
		t.Fatal("structural hashing failed on commuted AND")
	}
	if b.And2(x[0], False) != False {
		t.Fatal("And(x, false) should fold")
	}
	if b.And2(x[0], True) != x[0] {
		t.Fatal("And(x, true) should fold")
	}
	if b.And2(x[0], x[0]) != x[0] {
		t.Fatal("And(x, x) should fold")
	}
	if b.And2(x[0], x[0].Not()) != False {
		t.Fatal("And(x, ¬x) should fold")
	}
}

func TestRegSupportChain(t *testing.T) {
	b := NewBuilder()
	in := b.Input("in", 4)
	a := b.Register("a", 4, 0)
	bb := b.Register("b", 4, 0)
	cc := b.Register("c", 4, 0)
	b.SetNext("a", in)
	b.SetNext("b", a)
	b.SetNext("c", b.Add(bb, cc)) // c depends on b and itself
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sup := func(name string) []string {
		s, err := c.RegSupport(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if got := sup("a"); len(got) != 0 {
		t.Fatalf("support(a) = %v, want empty (input only)", got)
	}
	if got := sup("b"); len(got) != 1 || got[0] != "a" {
		t.Fatalf("support(b) = %v, want [a]", got)
	}
	if got := sup("c"); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("support(c) = %v, want [b c]", got)
	}
	c.WarmSupports()
}

// TestRegSupportSoundness: mutating a register outside the computed support
// of r must never change r's next value (support over-approximates; here we
// check the complement direction with random probing).
func TestRegSupportSoundness(t *testing.T) {
	b := NewBuilder()
	in := b.Input("in", 8)
	x := b.Register("x", 8, 0)
	y := b.Register("y", 8, 0)
	z := b.Register("z", 8, 0)
	w := b.Register("w", 8, 0)
	b.SetNext("x", b.Add(x, in))
	b.SetNext("y", b.XorW(x, z))
	b.SetNext("z", z)
	b.SetNext("w", b.MuxW(b.Eq(x, z), y, w))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	regs := []string{"x", "y", "z", "w"}
	for _, target := range regs {
		supList, _ := c.RegSupport(target)
		sup := map[string]bool{}
		for _, s := range supList {
			sup[s] = true
		}
		for iter := 0; iter < 50; iter++ {
			sim1, sim2 := NewSim(c), NewSim(c)
			base := Snapshot{rng.Uint64() & 255, rng.Uint64() & 255, rng.Uint64() & 255, rng.Uint64() & 255}
			sim1.LoadSnapshot(base)
			mod := base.Clone()
			// Perturb only registers outside the support.
			changed := false
			for i, name := range regs {
				if !sup[name] {
					mod[i] = rng.Uint64() & 255
					changed = changed || mod[i] != base[i]
				}
			}
			if !changed {
				continue
			}
			sim2.LoadSnapshot(mod)
			inv := rng.Uint64() & 255
			sim1.Step(Inputs{"in": inv})
			sim2.Step(Inputs{"in": inv})
			v1, _ := sim1.PeekReg(target)
			v2, _ := sim2.PeekReg(target)
			if v1 != v2 {
				t.Fatalf("register %s changed (%d vs %d) under out-of-support perturbation %v→%v",
					target, v1, v2, base, mod)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	b := NewBuilder()
	x := b.Register("x", 8, 3)
	y := b.Register("y", 16, 9)
	b.SetNext("x", b.Inc(x))
	b.SetNext("y", y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(c)
	sim.Step(nil)
	sim.Step(nil)
	snap := sim.Snapshot()
	if snap[0] != 5 || snap[1] != 9 {
		t.Fatalf("snapshot = %v", snap)
	}
	sim2 := NewSim(c)
	if err := sim2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !sim2.Snapshot().Equal(snap) {
		t.Fatal("load/snapshot mismatch")
	}
	if sim2.Snapshot().Equal(InitSnapshot(c)) {
		t.Fatal("snapshot should differ from init")
	}
	if err := sim2.LoadSnapshot(Snapshot{1}); err == nil {
		t.Fatal("expected width-mismatch error")
	}
}

func TestSimErrors(t *testing.T) {
	b := NewBuilder()
	r := b.Register("r", 4, 0)
	b.SetNext("r", r)
	c, _ := b.Build()
	sim := NewSim(c)
	if err := sim.Step(Inputs{"ghost": 1}); err == nil {
		t.Fatal("expected unknown-input error")
	}
	if _, err := sim.PeekReg("ghost"); err == nil {
		t.Fatal("expected unknown-register error")
	}
	if _, err := sim.PeekWire("ghost"); err == nil {
		t.Fatal("expected unknown-wire error")
	}
	if err := sim.PokeReg("ghost", 1); err == nil {
		t.Fatal("expected unknown-register error")
	}
}

func TestQuickAddCommutes(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 12)
	y := b.Input("y", 12)
	b.Name("xy", b.Add(x, y))
	b.Name("yx", b.Add(y, x))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(c)
	f := func(a, bv uint16) bool {
		sim.SetInputs(Inputs{"x": uint64(a & 0xfff), "y": uint64(bv & 0xfff)})
		v1, _ := sim.PeekWire("xy")
		v2, _ := sim.PeekWire("yx")
		return v1 == v2 && v1 == uint64(a&0xfff+bv&0xfff)&0xfff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
