package circuit

import (
	"math/rand"
	"testing"
)

// FuzzLanesMatchSim is the lane kernel's differential test: every lane gets
// its own random initial state and input stream, and after every step each
// lane's SnapshotInto must equal a scalar Sim driven the same way, and
// Differ must agree with comparing those snapshots register by register.
func FuzzLanesMatchSim(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 0x21, 2, 0x35, 4, 0x17, 1, 5}, int64(1), false)
	f.Add([]byte{0, 2, 0xff, 1, 0x42, 3, 0x66, 0, 0x0f, 9}, int64(2), true)
	f.Add([]byte{5, 0, 0, 2, 0x99, 2, 0x9a, 4, 0x21, 0, 0x13, 7, 3}, int64(3), true)
	f.Add([]byte{1, 2, 0x5a, 4, 0x13, 2, 0x87, 0, 0x3c, 3, 0xe1, 1, 0x44, 2, 6, 8}, int64(4), false)
	f.Fuzz(func(t *testing.T, spec []byte, seed int64, junk bool) {
		c, _, ok := buildSpecCircuit(spec, junk)
		if !ok {
			t.Skip()
		}
		const steps = 12
		rng := rand.New(rand.NewSource(seed))
		port, _ := c.Input("in")
		regs := c.Regs()
		lanes := NewLanes(c)
		sims := make([]*Sim, NumLanes)
		inputs := make([][]uint64, NumLanes)
		for k := range sims {
			sims[k] = NewSim(c)
			snap := sims[k].Snapshot()
			for i, r := range regs {
				snap[i] = rng.Uint64() & (1<<uint(r.Width) - 1)
				lanes.SetReg(k, i, snap[i])
			}
			if err := sims[k].LoadSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			inputs[k] = make([]uint64, steps)
			for s := range inputs[k] {
				inputs[k][s] = rng.Uint64()
			}
		}
		got := make(Snapshot, len(regs))
		for s := 0; s < steps; s++ {
			for k, sim := range sims {
				lanes.SetInput(k, port, inputs[k][s])
				if err := sim.Step(Inputs{"in": inputs[k][s]}); err != nil {
					t.Fatal(err)
				}
			}
			lanes.Step()
			want := make([]Snapshot, NumLanes)
			for k, sim := range sims {
				want[k] = sim.Snapshot()
				lanes.SnapshotInto(k, got)
				if !got.Equal(want[k]) {
					t.Fatalf("step %d lane %d: lanes %v, sim %v", s, k, got, want[k])
				}
			}
			for a := range regs {
				for b := range regs {
					var diff uint64
					for k := range want {
						if want[k][a] != want[k][b] {
							diff |= 1 << uint(k)
						}
					}
					if d := lanes.Differ(a, b); d != diff {
						t.Fatalf("step %d: Differ(%d, %d) = %#x, snapshots say %#x", s, a, b, d, diff)
					}
				}
			}
		}
	})
}

// TestSimStepDoesNotAllocate: with prebuilt Inputs a Step reuses the
// simulator's buffers.
func TestSimStepDoesNotAllocate(t *testing.T) {
	c, _, ok := buildSpecCircuit([]byte{2, 1, 3, 0, 0x21, 2, 0x35, 4, 0x17, 1, 5}, true)
	if !ok {
		t.Fatal("spec circuit did not build")
	}
	sim := NewSim(c)
	in := Inputs{"in": 1}
	if allocs := testing.AllocsPerRun(100, func() { sim.Step(in) }); allocs != 0 { //nolint:errcheck // the port exists
		t.Fatalf("Sim.Step allocates %.1f times per call", allocs)
	}
}
