package veloct

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	"hhoudini/internal/miter"
)

// ExampleConfig controls positive example generation (§5.2).
type ExampleConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// RunsPerInstr is the number of paired executions per safe
	// instruction, each with fresh differing secrets.
	RunsPerInstr int
	// CompositionRuns adds runs that issue a back-to-back burst of random
	// safe instructions (with incidental register dependencies), filling
	// the backend structures. Richer examples invalidate spurious
	// constant predicates early, which is what keeps backtracking low
	// (§3.2.1: "with a robust set of examples, a majority of the
	// backtracking can be eliminated").
	CompositionRuns int
	// CompositionLen is the burst length; 0 means 8
	// (DefaultExampleConfig sets 32).
	CompositionLen int
	// DirtyPreamble executes the target's unsafe start-up code before the
	// instruction under analysis (the situation §5.2.1's masking cleans
	// up). Only meaningful for targets that define one.
	DirtyPreamble bool
	// DisableMasking skips example masking even when the target declares
	// masking annotations — the masking ablation.
	DisableMasking bool
}

// DefaultExampleConfig mirrors the paper's setup.
func DefaultExampleConfig() ExampleConfig {
	return ExampleConfig{
		Seed:            1,
		RunsPerInstr:    3,
		CompositionRuns: 8,
		CompositionLen:  32,
		DirtyPreamble:   true,
	}
}

// ErrUnsafe reports that example generation itself witnessed a property
// violation: the instruction under analysis produced distinguishable
// traces, so the proposed set cannot be safe.
type ErrUnsafe struct {
	Instr string
	Cycle int
}

func (e ErrUnsafe) Error() string {
	return fmt.Sprintf("veloct: instruction %q produced distinguishable traces at cycle %d", e.Instr, e.Cycle)
}

// exampleGen drives paired concrete executions on the product circuit.
type exampleGen struct {
	tgt  *design.Target
	prod *miter.Product
	cfg  ExampleConfig
	rng  *rand.Rand

	obsL, obsR []int // product register indices of observables
	secretsL   []int // product indices of left-copy secrets
	secretsR   []int
	maskRules  []maskRule
}

type maskRule struct {
	valid  int // product register index of the valid bit
	fields []int
	inits  []uint64
}

func newExampleGen(tgt *design.Target, prod *miter.Product, cfg ExampleConfig) (*exampleGen, error) {
	g := &exampleGen{
		tgt:  tgt,
		prod: prod,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, obs := range tgt.Observable {
		l, r, err := prod.RegPair(obs)
		if err != nil {
			return nil, err
		}
		g.obsL = append(g.obsL, l)
		g.obsR = append(g.obsR, r)
	}
	for _, sec := range tgt.SecretRegs {
		l, r, err := prod.RegPair(sec)
		if err != nil {
			return nil, err
		}
		g.secretsL = append(g.secretsL, l)
		g.secretsR = append(g.secretsR, r)
	}
	if !cfg.DisableMasking {
		for _, rule := range tgt.Masks {
			// Masking applies independently per copy.
			for _, side := range []func(string) string{miter.Left, miter.Right} {
				mr := maskRule{valid: prod.Circuit.RegIndex(side(rule.ValidReg))}
				if mr.valid < 0 {
					return nil, fmt.Errorf("veloct: mask rule valid register %q missing", rule.ValidReg)
				}
				for _, f := range rule.Fields {
					idx := prod.Circuit.RegIndex(side(f))
					if idx < 0 {
						return nil, fmt.Errorf("veloct: mask rule field %q missing", f)
					}
					mr.fields = append(mr.fields, idx)
					mr.inits = append(mr.inits, prod.Circuit.Regs()[idx].Init)
				}
				g.maskRules = append(g.maskRules, mr)
			}
		}
	}
	return g, nil
}

// secretPair returns differing left/right secret values.
func (g *exampleGen) secretPair() (uint64, uint64) {
	l := g.rng.Uint64() & 0xffff
	r := g.rng.Uint64() & 0xffff
	if l == r {
		r ^= 1 + g.rng.Uint64()&0xff
	}
	return l, r
}

// mask applies the example-masking annotations (§5.2.1) in place: fields
// guarded by a cleared valid bit are reset to their declared reset values.
func (g *exampleGen) mask(snap circuit.Snapshot) {
	for _, mr := range g.maskRules {
		if snap[mr.valid] != 0 {
			continue
		}
		for i, f := range mr.fields {
			snap[f] = mr.inits[i]
		}
	}
}

// runPlan is one paired run with every random draw already made, so runs
// can be simulated in any grouping and still see exactly the values the
// one-run-at-a-time loop drew for them.
type runPlan struct {
	name    string   // the run's name in ErrUnsafe
	secrets []uint64 // per secret register: left value, right value
	pre     []uint64 // dirty-preamble words, each followed by pad NOPs
	instrs  []uint64 // the words under analysis (one NOP for the ε run)
	tail    int      // trailing NOPs (0 when planning stopped inside the run)
	off     int      // example index of the run's first collected state
}

// collected is the number of states the run checks and collects: two
// leading NOPs, the words under analysis and the trailing NOPs.
func (r *runPlan) collected() int { return 2 + len(r.instrs) + r.tail }

// word is the instruction the run feeds at step t, counted from the start
// of its preamble (preSteps = len(r.pre)*(1+pad)). The second result is
// false during the preamble, whose states are neither checked nor
// collected: the paper's start-up code (§5.2) uses public operands, so
// both copies behave identically by construction.
func (r *runPlan) word(t, pad, preSteps int, nop uint64) (uint64, bool) {
	if t < preSteps {
		if t%(1+pad) == 0 {
			return r.pre[t/(1+pad)], false
		}
		return nop, false
	}
	if u := t - preSteps - 2; u >= 0 && u < len(r.instrs) {
		return r.instrs[u], true
	}
	return nop, true
}

// GenerateCtx produces the positive example set for a proposed safe set:
// the initial product state, a pure-NOP run, RunsPerInstr paired runs per
// safe instruction and CompositionRuns bursts. Each run optionally
// executes the dirty preamble, then the instruction(s) under analysis,
// NOP-padded; product states from the in-flight window become (masked)
// examples. A property violation during any run aborts with ErrUnsafe.
//
// It plans every run first (all random draws, in the order a
// one-run-at-a-time loop makes them), then simulates the runs 64 at a
// time, one per lane of a circuit.Lanes, in run order, writing each
// collected state straight into its slot of the batch's slab. The example
// set and any ErrUnsafe (the lowest-index failing run and its cycle) are
// exactly those of simulating the runs one after another. Cancellation is
// observed between batches and every cancelEvery steps inside one, and
// surfaces as ctx.Err().
func (g *exampleGen) GenerateCtx(ctx context.Context, safe []string) ([]circuit.Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := g.prod.Circuit
	port, ok := c.Input(g.tgt.InstrPort)
	if !ok {
		return nil, fmt.Errorf("circuit: unknown input %q", g.tgt.InstrPort)
	}
	runs, total, planErr := g.plan(safe)

	// The initial state is always an example (it anchors initiation,
	// Definition 4.8 / P-S).
	out := make([]circuit.Snapshot, total)
	out[0] = circuit.InitSnapshot(c)
	g.mask(out[0])

	nregs := len(c.Regs())
	lanes := circuit.NewLanes(c)
	for lo := 0; lo < len(runs); lo += circuit.NumLanes {
		batch := runs[lo:min(lo+circuit.NumLanes, len(runs))]
		// A batch's examples are contiguous; one exact-capacity slab holds
		// them, and each state is collected straight into its slot.
		first, last := batch[0].off, &batch[len(batch)-1]
		end := last.off + last.collected()
		slab := make([]uint64, (end-first)*nregs)
		for i := first; i < end; i++ {
			j := (i - first) * nregs
			out[i] = slab[j : j+nregs : j+nregs]
		}
		if err := g.simulate(ctx, lanes, port, batch, out); err != nil {
			return nil, err
		}
	}
	if planErr != nil {
		return nil, planErr
	}
	return out, nil
}

// cancelEvery is how many lane steps pass between context checks inside
// one batch.
const cancelEvery = 256

// plan lists the runs of a generation and makes all of their random draws:
// first the burst picks, then per run its secret pairs, its dirty preamble
// and its instruction encodings. No draw depends on a simulated value. It
// returns the runs, the number of examples they collect plus one for the
// initial state, and an encoding error; on an error the failing run is the
// last one, cut after the words encoded before the error.
func (g *exampleGen) plan(safe []string) ([]runPlan, int, error) {
	type runSpec struct {
		mns     []string
		chained bool
	}
	specs := []runSpec{{mns: []string{""}}} // pure-NOP run (ε-composition)
	for _, mn := range safe {
		for k := 0; k < g.cfg.RunsPerInstr; k++ {
			specs = append(specs, runSpec{mns: []string{mn}})
		}
	}
	// Back-to-back compositions of safe instructions (Definition 4.4
	// quantifies over sequences; these runs exercise deep structural
	// occupancy — multiple issue-queue/ROB entries live at once). Half of
	// the bursts are dependency-chained through a single register (when
	// the target supports pinned operands), which serializes completion
	// and fills the issue queue and reorder buffer to their capacity.
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
			specs = append(specs, runSpec{mns: burst, chained: k%2 == 1 && g.tgt.EncodeDep != nil})
		}
	}

	runs := make([]runPlan, 0, len(specs))
	total := 1
	for _, spec := range specs {
		r := runPlan{name: spec.mns[0], off: total}
		if r.name == "" {
			r.name = "<nop>"
		}
		if len(spec.mns) > 1 {
			r.name = "<burst:" + spec.mns[0] + ",...>"
		}
		r.secrets = make([]uint64, 0, 2*len(g.secretsL))
		for range g.secretsL {
			l, rv := g.secretPair()
			r.secrets = append(r.secrets, l, rv)
		}
		// Start-up: optional dirty preamble, fully padded so it drains.
		if g.cfg.DirtyPreamble && g.tgt.DirtyPreamble != nil {
			r.pre = g.tgt.DirtyPreamble(g.rng)
		}
		// Two leading NOPs (quiesce; these states are positive examples
		// too — they witness ε-compositions from an equal-modulo-secret
		// state, which keeps backtracking low, §3.2.1), the instruction(s)
		// under analysis, then padding; the whole in-flight window is
		// collected.
		r.instrs = make([]uint64, 0, len(spec.mns))
		for _, mn := range spec.mns {
			word := g.tgt.Nop
			if mn != "" {
				var err error
				if spec.chained {
					word, err = g.tgt.EncodeDep(mn, 1, 1, 1, g.rng)
				} else {
					word, err = g.tgt.Encode(mn, g.rng)
				}
				if err != nil {
					total += r.collected()
					return append(runs, r), total, err
				}
			}
			r.instrs = append(r.instrs, word)
		}
		r.tail = g.tgt.MaxLatency + 2 + 2*len(spec.mns)
		total += r.collected()
		runs = append(runs, r)
	}
	return runs, total, nil
}

// simulate runs one batch of at most circuit.NumLanes runs, run k in lane
// k. Every step past a run's preamble checks its observables and, unless
// out is nil, collects its masked state into out. A violation ends the
// batch with ErrUnsafe for the lowest-index failing run, as soon as no
// lower-index run is still going.
func (g *exampleGen) simulate(ctx context.Context, lanes *circuit.Lanes, port circuit.Port, batch []runPlan, out []circuit.Snapshot) error {
	pad, nop := g.tgt.MaxLatency, g.tgt.Nop
	lanes.Reset()
	var preSteps [circuit.NumLanes]int
	var fed [circuit.NumLanes]uint64 // each lane's input word (Reset zeroes it)
	steps := 0
	for k := range batch {
		r := &batch[k]
		for i := range g.secretsL {
			lanes.SetReg(k, g.secretsL[i], r.secrets[2*i])
			lanes.SetReg(k, g.secretsR[i], r.secrets[2*i+1])
		}
		preSteps[k] = len(r.pre) * (1 + pad)
		steps = max(steps, preSteps[k]+r.collected())
	}
	var failed uint64
	var failCycle [circuit.NumLanes]int
	for t := 0; t < steps; t++ {
		if t%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		var running, checked uint64
		for k := range batch {
			r := &batch[k]
			if t >= preSteps[k]+r.collected() {
				continue
			}
			running |= 1 << uint(k)
			word, check := r.word(t, pad, preSteps[k], nop)
			if check {
				checked |= 1 << uint(k)
			}
			if word != fed[k] {
				lanes.SetInput(k, port, word)
				fed[k] = word
			}
		}
		lanes.Step()

		var diff uint64
		for i := range g.obsL {
			diff |= lanes.Differ(g.obsL[i], g.obsR[i])
		}
		if bad := diff & checked &^ failed; bad != 0 {
			for m := bad; m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				failCycle[k] = t - preSteps[k] + 1
			}
			failed |= bad
		}
		if failed != 0 {
			// Collecting is moot now; only a lower-index run that is still
			// going could name an earlier failure.
			if running&(failed&-failed-1) == 0 {
				break
			}
			continue
		}
		if out == nil {
			continue
		}
		for m := checked; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			snap := out[batch[k].off+t-preSteps[k]]
			lanes.SnapshotInto(k, snap)
			g.mask(snap)
		}
	}
	if failed != 0 {
		k := bits.TrailingZeros64(failed)
		return ErrUnsafe{Instr: batch[k].name, Cycle: failCycle[k]}
	}
	return nil
}
