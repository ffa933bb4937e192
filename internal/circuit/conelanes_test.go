package circuit

import (
	"math/rand"
	"testing"

	"hhoudini/internal/sat"
)

// TestConeLanesMatchSim: ConeLanes started from a Sat model and stepped
// with per-lane register overrides computes, in every lane, the next state
// a scalar Sim computes from the overridden state under the model's
// inputs; with no override a lane reproduces the model's own next state.
// Registers outside the encoded cone are refused.
func TestConeLanesMatchSim(t *testing.T) {
	b := NewBuilder()
	in := b.Input("in", 8)
	sel := b.Input("sel", 1)
	x := b.Register("x", 8, 0)
	y := b.Register("y", 8, 0)
	z := b.Register("z", 8, 1)
	w := b.Register("w", 4, 0)
	b.SetNext("x", b.Add(x, in))
	b.SetNext("y", b.MuxW(sel[0], b.XorW(x, z), b.Sub(y, x)))
	b.SetNext("z", b.MuxW(b.Ult(x, y), b.Mul(z, in), z))
	b.SetNext("w", b.Inc(w))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	regs := []int{c.RegIndex("x"), c.RegIndex("y"), c.RegIndex("z")}
	for iter := 0; iter < 20; iter++ {
		solver := sat.New()
		enc := NewEncoder(c, solver)
		inL, _ := enc.InputLits("in")
		selL, _ := enc.InputLits("sel")
		var cur, next [][]sat.Lit
		for _, name := range []string{"x", "y", "z"} {
			l, _ := enc.RegLits(name)
			n, _ := enc.RegNextLits(name)
			cur, next = append(cur, l), append(next, n)
		}
		lanes := enc.ConeLanes()
		// A random model: pin the inputs and x; y and z are the solver's.
		as := append(assumeWord(inL, rng.Uint64()&255), assumeWord(selL, rng.Uint64()&1)...)
		as = append(as, assumeWord(cur[0], rng.Uint64()&255)...)
		if st := solver.Solve(as...); st != sat.Sat {
			t.Fatalf("iter %d: %v", iter, st)
		}
		lanes.Load()
		model := make(Snapshot, len(c.Regs()))
		for i, r := range regs {
			v, ok := lanes.Reg(r)
			if !ok || v != modelWord(solver, cur[i]) {
				t.Fatalf("iter %d: Reg(%d) = %#x, %v; model %#x", iter, r, v, ok, modelWord(solver, cur[i]))
			}
			model[r] = v
		}
		if _, ok := lanes.Reg(c.RegIndex("w")); ok {
			t.Fatal("Reg read a register outside the encoded cone")
		}
		if lanes.SetReg(1, c.RegIndex("w"), 3) {
			t.Fatal("SetReg took a register outside the encoded cone")
		}
		inputs := Inputs{"in": modelWord(solver, inL), "sel": modelWord(solver, selL)}
		states := make([]Snapshot, NumLanes)
		for k := range states {
			states[k] = model.Clone()
			if k == 0 {
				continue // lane 0 keeps the model
			}
			for _, r := range regs {
				if rng.Intn(2) == 0 {
					states[k][r] = rng.Uint64() & 255
					if !lanes.SetReg(k, r, states[k][r]) {
						t.Fatalf("SetReg(%d) refused an encoded register", r)
					}
				}
			}
		}
		lanes.Step()
		for k, st := range states {
			sim := NewSim(c)
			if err := sim.LoadSnapshot(st); err != nil {
				t.Fatal(err)
			}
			if err := sim.Step(inputs); err != nil {
				t.Fatal(err)
			}
			for i, r := range regs {
				want := sim.Snapshot()[r]
				if k == 0 && want != modelWord(solver, next[i]) {
					t.Fatalf("iter %d: sim next %#x disagrees with the model's %#x", iter, want, modelWord(solver, next[i]))
				}
				if got, ok := lanes.Next(k, r); !ok || got != want {
					t.Fatalf("iter %d lane %d reg %d: Next = %#x, %v; sim %#x", iter, k, r, got, ok, want)
				}
			}
		}
		if _, ok := lanes.Next(0, c.RegIndex("w")); ok {
			t.Fatal("Next read a next-state function outside the encoded cone")
		}
		// Reset undoes the overrides: every lane is the model again.
		lanes.Reset()
		lanes.Step()
		for k := 0; k < NumLanes; k++ {
			for i, r := range regs {
				if got, _ := lanes.Next(k, r); got != modelWord(solver, next[i]) {
					t.Fatalf("iter %d lane %d: after Reset Next = %#x, model %#x", iter, k, got, modelWord(solver, next[i]))
				}
			}
		}
	}
}
