package hhoudini

import (
	"fmt"
	"math/rand"
	"testing"

	"hhoudini/internal/circuit"
)

// randomSystem builds a small random sequential circuit (1-bit registers,
// random 2-level next-state logic, up to 2 input bits) together with a
// regEq predicate universe.
func randomSystem(t *testing.T, rng *rand.Rand) (*System, []Pred) {
	t.Helper()
	nRegs := 3 + rng.Intn(3)
	nIns := rng.Intn(3)
	b := circuit.NewBuilder()
	var inBits []circuit.Signal
	for i := 0; i < nIns; i++ {
		inBits = append(inBits, b.Input(fmt.Sprintf("i%d", i), 1)[0])
	}
	regs := make([]circuit.Word, nRegs)
	inits := make([]uint64, nRegs)
	for i := 0; i < nRegs; i++ {
		inits[i] = uint64(rng.Intn(2))
		regs[i] = b.Register(fmt.Sprintf("r%d", i), 1, inits[i])
	}
	// Random leaf: a register, input, or constant.
	leaf := func() circuit.Signal {
		switch rng.Intn(4) {
		case 0:
			if len(inBits) > 0 {
				return inBits[rng.Intn(len(inBits))]
			}
			fallthrough
		case 1:
			return circuit.Signal(rng.Intn(2)) // False or True
		default:
			return regs[rng.Intn(nRegs)][0]
		}
	}
	expr := func() circuit.Signal {
		a, c := leaf(), leaf()
		switch rng.Intn(5) {
		case 0:
			return b.And2(a, c)
		case 1:
			return b.Or2(a, c)
		case 2:
			return b.Xor2(a, c)
		case 3:
			return b.Not(a)
		default:
			return b.Mux2(leaf(), a, c)
		}
	}
	for i := 0; i < nRegs; i++ {
		b.SetNext(fmt.Sprintf("r%d", i), circuit.Word{expr()})
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var universe []Pred
	for i := 0; i < nRegs; i++ {
		universe = append(universe, regEq{reg: fmt.Sprintf("r%d", i), val: 0})
		universe = append(universe, regEq{reg: fmt.Sprintf("r%d", i), val: 1})
	}
	return &System{Circuit: c}, universe
}

// allInputCombos enumerates every input assignment of a circuit with 1-bit
// inputs.
func allInputCombos(c *circuit.Circuit) []circuit.Inputs {
	ports := c.Inputs()
	n := len(ports)
	out := make([]circuit.Inputs, 0, 1<<n)
	for m := 0; m < 1<<n; m++ {
		in := circuit.Inputs{}
		for i, p := range ports {
			in[p.Name] = uint64(m>>i) & 1
		}
		out = append(out, in)
	}
	return out
}

// reachable enumerates the reachable state set by BFS over concrete
// simulation.
func reachable(t *testing.T, c *circuit.Circuit) []circuit.Snapshot {
	t.Helper()
	sim := circuit.NewSim(c)
	inputs := allInputCombos(c)
	key := func(s circuit.Snapshot) string { return fmt.Sprint(s) }
	seen := map[string]circuit.Snapshot{}
	frontier := []circuit.Snapshot{circuit.InitSnapshot(c)}
	seen[key(frontier[0])] = frontier[0]
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, in := range inputs {
			sim.LoadSnapshot(cur)
			sim.Step(in)
			next := sim.Snapshot()
			if _, ok := seen[key(next)]; !ok {
				seen[key(next)] = next
				frontier = append(frontier, next)
			}
		}
	}
	out := make([]circuit.Snapshot, 0, len(seen))
	for _, s := range seen {
		out = append(out, s)
	}
	return out
}

// holdsOn evaluates a conjunction of predicates on a snapshot.
func holdsOn(t *testing.T, c *circuit.Circuit, preds []Pred, s circuit.Snapshot) bool {
	t.Helper()
	for _, p := range preds {
		ok, err := p.Eval(c, s)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
	}
	return true
}

// bruteForceInvariantExists checks by enumeration whether any subset of
// the universe containing the target forms an inductive invariant
// (initiation + consecution over the full state space).
func bruteForceInvariantExists(t *testing.T, c *circuit.Circuit, universe []Pred, target Pred) bool {
	t.Helper()
	sim := circuit.NewSim(c)
	inputs := allInputCombos(c)
	nBits := c.NumStateBits()
	if nBits > 8 {
		t.Fatalf("brute force limited to 8 state bits, got %d", nBits)
	}
	// Enumerate all states once.
	var states []circuit.Snapshot
	for m := 0; m < 1<<nBits; m++ {
		s := make(circuit.Snapshot, len(c.Regs()))
		for i := range c.Regs() {
			s[i] = uint64(m>>i) & 1 // all registers are 1 bit here
		}
		states = append(states, s)
	}
	init := circuit.InitSnapshot(c)
	for mask := 0; mask < 1<<len(universe); mask++ {
		var subset []Pred
		hasTarget := false
		for i, p := range universe {
			if mask&(1<<i) != 0 {
				subset = append(subset, p)
				if p.ID() == target.ID() {
					hasTarget = true
				}
			}
		}
		if !hasTarget || !holdsOn(t, c, subset, init) {
			continue
		}
		inductive := true
	outer:
		for _, s := range states {
			if !holdsOn(t, c, subset, s) {
				continue
			}
			for _, in := range inputs {
				sim.LoadSnapshot(s)
				sim.Step(in)
				if !holdsOn(t, c, subset, sim.Snapshot()) {
					inductive = false
					break outer
				}
			}
		}
		if inductive {
			return true
		}
	}
	return false
}

// TestQuickLearnerSoundAndComplete cross-checks the learner against brute
// force on random tiny systems: when the learner returns an invariant it
// must audit and imply the property on every reachable state; when it
// returns None, no subset of the universe may form a proving invariant
// (the completeness guarantee of Appendix A.3). The brute-force oracle
// shares nothing with the solver, and both the sequential and the parallel
// schedule of the one abduction path are held to it.
func TestQuickLearnerSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(20250704))
	found, none := 0, 0
	for iter := 0; iter < 60; iter++ {
		sys, universe := randomSystem(t, rng)
		target := universe[rng.Intn(len(universe))].(regEq)
		// Skip targets violated at init (trivially None; covered elsewhere).
		init := circuit.InitSnapshot(sys.Circuit)
		if ok, _ := target.Eval(sys.Circuit, init); !ok {
			continue
		}
		exists := bruteForceInvariantExists(t, sys.Circuit, universe, target)
		for _, workers := range []int{1, 3} {
			opts := DefaultOptions()
			opts.Workers = workers
			opts.Cache = NewVerifyCache() // every worker count solves for itself
			l := NewLearner(sys, minerOf(universe...), opts)
			inv, err := l.Learn([]Pred{target})
			if err != nil {
				t.Fatal(err)
			}
			if inv != nil {
				found++
				if !exists {
					t.Fatalf("iter %d workers=%d: learner found an invariant brute force says cannot exist", iter, workers)
				}
				if err := Audit(sys, inv); err != nil {
					t.Fatalf("iter %d workers=%d: audit: %v", iter, workers, err)
				}
				for _, s := range reachable(t, sys.Circuit) {
					ok, err := target.Eval(sys.Circuit, s)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("iter %d workers=%d: property violated on reachable state %v despite invariant", iter, workers, s)
					}
				}
			} else {
				none++
				if exists {
					t.Fatalf("iter %d workers=%d: learner returned None but an invariant exists in the universe", iter, workers)
				}
			}
		}
	}
	if found == 0 || none == 0 {
		t.Fatalf("test corpus unbalanced: found=%d none=%d", found, none)
	}
	t.Logf("random systems x {1,3} workers: %d invariants found, %d correct Nones", found, none)
}

// TestQuickRecursiveAgreesOnRandomSystems cross-checks the worklist and
// recursive learners on the same random corpus.
func TestQuickRecursiveAgreesOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		sys, universe := randomSystem(t, rng)
		target := universe[rng.Intn(len(universe))].(regEq)
		init := circuit.InitSnapshot(sys.Circuit)
		if ok, _ := target.Eval(sys.Circuit, init); !ok {
			continue
		}
		lw := NewLearner(sys, minerOf(universe...), DefaultOptions())
		invW, err := lw.Learn([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}
		lr := NewLearner(sys, minerOf(universe...), DefaultOptions())
		invR, err := lr.LearnRecursive([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}
		if (invW == nil) != (invR == nil) {
			t.Fatalf("iter %d: learners disagree (worklist=%v recursive=%v)", iter, invW != nil, invR != nil)
		}
		if invR != nil {
			if err := Audit(sys, invR); err != nil {
				t.Fatalf("iter %d: recursive invariant audit: %v", iter, err)
			}
		}
	}
}

// TestQuickParallelAgreesOnRandomSystems checks worker counts do not change
// the verdict.
func TestQuickParallelAgreesOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for iter := 0; iter < 25; iter++ {
		sys, universe := randomSystem(t, rng)
		target := universe[rng.Intn(len(universe))].(regEq)
		init := circuit.InitSnapshot(sys.Circuit)
		if ok, _ := target.Eval(sys.Circuit, init); !ok {
			continue
		}
		var verdicts []bool
		for _, w := range []int{1, 3} {
			l := NewLearner(sys, minerOf(universe...), testOptions(w))
			inv, err := l.Learn([]Pred{target})
			if err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, inv != nil)
			if inv != nil {
				if err := Audit(sys, inv); err != nil {
					t.Fatalf("iter %d workers=%d: %v", iter, w, err)
				}
			}
		}
		if verdicts[0] != verdicts[1] {
			t.Fatalf("iter %d: parallel verdict differs", iter)
		}
	}
}
