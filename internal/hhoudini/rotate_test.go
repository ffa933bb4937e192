package hhoudini

import (
	"fmt"
	"math/rand"
	"testing"

	"hhoudini/internal/circuit"
	"hhoudini/internal/sat"
)

// pairEq is Eq over a register pair: a<i> == b<i>, the relational shape of
// veloct.EqPred on a two-copy product.
type pairEq struct{ i int }

func (p pairEq) ID() string     { return fmt.Sprintf("Eq(%d)", p.i) }
func (p pairEq) Vars() []string { return []string{fmt.Sprintf("a%d", p.i), fmt.Sprintf("b%d", p.i)} }
func (p pairEq) String() string { return p.ID() }

func (p pairEq) Encode(enc *circuit.Encoder, next bool) (sat.Lit, error) {
	a, b, err := pairLits(enc, p.Vars(), next)
	if err != nil {
		return 0, err
	}
	return enc.EqLits(a, b), nil
}

func (p pairEq) Eval(c *circuit.Circuit, s circuit.Snapshot) (bool, error) {
	v := p.Vars()
	return s[c.RegIndex(v[0])] == s[c.RegIndex(v[1])], nil
}

// pairConst is EqConst over a register pair: a<i> == b<i> == val, the shape
// of veloct.EqConstPred. Its tier puts it ahead of pairEq in deletion.
type pairConst struct {
	i   int
	val uint64
}

func (p pairConst) ID() string     { return fmt.Sprintf("EqConst(%d,%d)", p.i, p.val) }
func (p pairConst) Vars() []string { return pairEq{p.i}.Vars() }
func (p pairConst) String() string { return p.ID() }
func (p pairConst) Tier() int      { return 1 }

func (p pairConst) Encode(enc *circuit.Encoder, next bool) (sat.Lit, error) {
	a, b, err := pairLits(enc, p.Vars(), next)
	if err != nil {
		return 0, err
	}
	return enc.AndLits(enc.EqConstLits(a, p.val), enc.EqConstLits(b, p.val)), nil
}

func (p pairConst) Eval(c *circuit.Circuit, s circuit.Snapshot) (bool, error) {
	v := p.Vars()
	return s[c.RegIndex(v[0])] == p.val && s[c.RegIndex(v[1])] == p.val, nil
}

func pairLits(enc *circuit.Encoder, vars []string, next bool) (a, b []sat.Lit, err error) {
	get := enc.RegLits
	if next {
		get = enc.RegNextLits
	}
	if a, err = get(vars[0]); err != nil {
		return nil, nil, err
	}
	b, err = get(vars[1])
	return a, b, err
}

// randomPairSystem builds a small random two-copy product: n base registers
// of one width w, each present as a<i> and b<i> with the same reset value
// and the same random next-state logic over its own copy's registers, a
// shared public input and a secret input per copy. The environment
// assumption keeps bit 0 of the public input low. The universe is Eq and
// EqConst (at the reset value and at a random value) over every pair: the
// shape of a VeloCT product and its predicate language, small enough for
// many systems per test.
func randomPairSystem(t *testing.T, rng *rand.Rand) (*System, []Pred) {
	t.Helper()
	w := 2 + rng.Intn(3)
	n := 3 + rng.Intn(4)
	type op struct{ kind, j, k int }
	ops := make([]op, n)
	inits := make([]uint64, n)
	consts := make([]uint64, n)
	for i := range ops {
		ops[i] = op{rng.Intn(6), rng.Intn(n), rng.Intn(n)}
		inits[i] = uint64(rng.Intn(1 << w))
		consts[i] = uint64(rng.Intn(1 << w))
	}
	b := circuit.NewBuilder()
	pub := b.Input("pub", w)
	for _, side := range []string{"a", "b"} {
		sec := b.Input("sec_"+side, w)
		x := make([]circuit.Word, n)
		for i := range x {
			x[i] = b.Register(fmt.Sprintf("%s%d", side, i), w, inits[i])
		}
		for i, o := range ops {
			var next circuit.Word
			switch o.kind {
			case 0:
				next = b.Add(x[o.j], x[o.k])
			case 1:
				next = b.MuxW(pub[1], x[o.j], pub)
			case 2:
				next = b.XorW(x[o.j], x[o.k])
			case 3:
				next = b.MuxW(b.EqConst(x[o.j], consts[i]), sec, x[o.k])
			case 4:
				next = x[i]
			default:
				next = b.MuxW(x[o.j][0], x[o.k], b.Const(consts[i], w))
			}
			b.SetNext(fmt.Sprintf("%s%d", side, i), next)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var universe []Pred
	for i := 0; i < n; i++ {
		universe = append(universe, pairEq{i}, pairConst{i, inits[i]})
		if consts[i] != inits[i] {
			universe = append(universe, pairConst{i, consts[i]})
		}
	}
	sys := &System{Circuit: c, Constrain: func(enc *circuit.Encoder) error {
		lits, err := enc.InputLits("pub")
		if err != nil {
			return err
		}
		enc.AssertLit(lits[0].Not())
		return nil
	}}
	return sys, universe
}

// TestRotationClaimsAgreeOnRandomSystems: on random systems — those of
// quick_test.go and random two-copy products — every core literal model
// rotation proves critical is critical (the solver, asked for cur without
// it, answers Sat), Stats.CriticalBySimulation counts exactly the claims,
// and every invariant learned still audits. Each system learns every
// predicate of its universe that holds at reset, so the learner issues many
// queries per system. quick_test.go's one-bit systems rarely have a core of
// more than two literals, so the two-copy products are what must make
// rotation claim something, or the test shows nothing.
func TestRotationClaimsAgreeOnRandomSystems(t *testing.T) {
	for _, corpus := range []struct {
		name  string
		build func(*testing.T, *rand.Rand) (*System, []Pred)
		iters int
	}{
		{"quick", randomSystem, 150},
		{"pairs", randomPairSystem, 200},
	} {
		rng := rand.New(rand.NewSource(20251018))
		var claims, probes int64
		for iter := 0; iter < corpus.iters; iter++ {
			sys, universe := corpus.build(t, rng)
			init := circuit.InitSnapshot(sys.Circuit)
			var targets []Pred
			for _, p := range universe {
				if ok, _ := p.Eval(sys.Circuit, init); ok {
					targets = append(targets, p)
				}
			}
			l := NewLearner(sys, minerOf(universe...), testOptions(1))
			n := ProbeClaims(t, l)
			inv, err := l.Learn(targets)
			if err != nil {
				t.Fatal(err)
			}
			if inv != nil {
				if err := Audit(sys, inv); err != nil {
					t.Fatalf("%s iter %d: audit: %v", corpus.name, iter, err)
				}
			}
			st := l.Stats().Snapshot()
			if st.CriticalBySimulation != n.Load() {
				t.Fatalf("%s iter %d: Stats.CriticalBySimulation %d, the hook returned %d", corpus.name, iter, st.CriticalBySimulation, n.Load())
			}
			claims += n.Load()
			probes += st.MinimizeSolves
		}
		t.Logf("%s: rotation proved %d literals critical; %d deletion probes", corpus.name, claims, probes)
		if corpus.name == "pairs" && claims == 0 {
			t.Fatal("rotation proved nothing on the two-copy products")
		}
	}
}
