package veloct

import (
	"context"
	"math/rand"

	"hhoudini/internal/circuit"
)

// This file keeps the scalar example engine — one run at a time on a
// circuit.Sim — as the oracle the lane-parallel generator and SimUnsafe
// must match bit for bit (examples_test.go compares them).

// scalarGenerate is GenerateCtx as a sequential loop over the runs.
func scalarGenerate(ctx context.Context, g *exampleGen, safe []string) ([]circuit.Snapshot, error) {
	pad := g.tgt.MaxLatency
	var out []circuit.Snapshot
	init := circuit.InitSnapshot(g.prod.Circuit)
	g.mask(init)
	out = append(out, init)

	type runSpec struct {
		mns     []string
		chained bool
	}
	runs := []runSpec{{mns: []string{""}}}
	for _, mn := range safe {
		for k := 0; k < g.cfg.RunsPerInstr; k++ {
			runs = append(runs, runSpec{mns: []string{mn}})
		}
	}
	if len(safe) > 0 {
		burstLen := g.cfg.CompositionLen
		if burstLen == 0 {
			burstLen = 8
		}
		for k := 0; k < g.cfg.CompositionRuns; k++ {
			burst := make([]string, burstLen)
			for i := range burst {
				burst[i] = safe[g.rng.Intn(len(safe))]
			}
			runs = append(runs, runSpec{mns: burst, chained: k%2 == 1 && g.tgt.EncodeDep != nil})
		}
	}

	for _, run := range runs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runName := run.mns[0]
		if runName == "" {
			runName = "<nop>"
		}
		if len(run.mns) > 1 {
			runName = "<burst:" + run.mns[0] + ",...>"
		}
		sim := freshSim(g)
		cycle := 0
		feed := func(word uint64) error {
			snap, err := step(g, sim, word)
			if err != nil {
				return err
			}
			cycle++
			for i := range g.obsL {
				if snap[g.obsL[i]] != snap[g.obsR[i]] {
					return ErrUnsafe{Instr: runName, Cycle: cycle}
				}
			}
			g.mask(snap)
			out = append(out, snap)
			return nil
		}
		if g.cfg.DirtyPreamble && g.tgt.DirtyPreamble != nil {
			for _, w := range g.tgt.DirtyPreamble(g.rng) {
				if err := stepPreamble(g, sim, w, pad); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < 2; i++ {
			if err := feed(g.tgt.Nop); err != nil {
				return nil, err
			}
		}
		for _, mn := range run.mns {
			word := g.tgt.Nop
			if mn != "" {
				var w uint64
				var err error
				if run.chained {
					w, err = g.tgt.EncodeDep(mn, 1, 1, 1, g.rng)
				} else {
					w, err = g.tgt.Encode(mn, g.rng)
				}
				if err != nil {
					return nil, err
				}
				word = w
			}
			if err := feed(word); err != nil {
				return nil, err
			}
		}
		for i := 0; i < pad+2+2*len(run.mns); i++ {
			if err := feed(g.tgt.Nop); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// freshSim builds a product simulator in an equal-modulo-secret state.
func freshSim(g *exampleGen) *circuit.Sim {
	sim := circuit.NewSim(g.prod.Circuit)
	snap := sim.Snapshot()
	for i := range g.secretsL {
		l, r := g.secretPair()
		snap[g.secretsL[i]] = l
		snap[g.secretsR[i]] = r
	}
	sim.LoadSnapshot(snap) //nolint:errcheck // the snapshot is the circuit's own
	return sim
}

// step feeds one instruction word and returns the post-edge snapshot.
func step(g *exampleGen, sim *circuit.Sim, word uint64) (circuit.Snapshot, error) {
	if err := sim.Step(circuit.Inputs{g.tgt.InstrPort: word}); err != nil {
		return nil, err
	}
	return sim.Snapshot(), nil
}

// stepPreamble runs one start-up instruction plus its padding, unchecked
// and uncollected.
func stepPreamble(g *exampleGen, sim *circuit.Sim, word uint64, pad int) error {
	if _, err := step(g, sim, word); err != nil {
		return err
	}
	for i := 0; i < pad; i++ {
		if _, err := step(g, sim, g.tgt.Nop); err != nil {
			return err
		}
	}
	return nil
}

// scalarSimUnsafe is SimUnsafe one trial pair at a time.
func scalarSimUnsafe(a *Analysis, mn string, extraRandom int) (bool, error) {
	rng := rand.New(rand.NewSource(a.Opts.Examples.Seed + 7))
	pairs := append([]trialPair(nil), trials...)
	for i := 0; i < extraRandom; i++ {
		l, r := rng.Uint64()&0xffff, rng.Uint64()&0xffff
		if l == r {
			r ^= 1
		}
		pairs = append(pairs, trialPair{l, r})
	}
	pad := a.Target.MaxLatency
	for _, pair := range pairs {
		word, err := a.Target.Encode(mn, rng)
		if err != nil {
			return false, err
		}
		sim := circuit.NewSim(a.Product.Circuit)
		snap := sim.Snapshot()
		for _, sec := range a.Target.SecretRegs {
			li, ri, err := a.Product.RegPair(sec)
			if err != nil {
				return false, err
			}
			snap[li], snap[ri] = pair.l, pair.r
		}
		sim.LoadSnapshot(snap) //nolint:errcheck // the snapshot is the circuit's own
		words := []uint64{a.Target.Nop, a.Target.Nop, word}
		for i := 0; i < pad+2; i++ {
			words = append(words, a.Target.Nop)
		}
		for _, w := range words {
			if err := sim.Step(circuit.Inputs{a.Target.InstrPort: w}); err != nil {
				return false, err
			}
			cur := sim.Snapshot()
			for _, obs := range a.Target.Observable {
				li, ri, err := a.Product.RegPair(obs)
				if err != nil {
					return false, err
				}
				if cur[li] != cur[ri] {
					return true, nil
				}
			}
		}
	}
	return false, nil
}
