package veloct

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	"hhoudini/internal/hhoudini"
	"hhoudini/internal/isa"
	"hhoudini/internal/miter"
	"hhoudini/internal/sat"
)

// Options configure a VeloCT analysis.
type Options struct {
	// Learner configures H-Houdini (workers, the answer cache and its
	// proof store).
	Learner hhoudini.Options
	// Examples configures positive example generation.
	Examples ExampleConfig
	// DisableAnnotations drops the target's expert UopRules — the
	// "no expert annotations" configuration the paper uses for Rocketchip.
	DisableAnnotations bool
	// CacheNamespace partitions every cross-run cache identity this
	// analysis produces (see hhoudini.System.Namespace). The multi-tenant
	// service sets it to the tenant id so no cached artifact crosses a
	// tenant boundary; empty means the default shared namespace.
	CacheNamespace string
}

// DefaultOptions mirror the paper's configuration: sequential learner,
// masking and annotations enabled.
func DefaultOptions() Options {
	return Options{
		Learner:  hhoudini.DefaultOptions(),
		Examples: DefaultExampleConfig(),
	}
}

// Analysis is a VeloCT run bound to one design. The product circuit is
// built once and shared across safe-set proposals.
type Analysis struct {
	Target  *design.Target
	Product *miter.Product
	Opts    Options
}

// New builds an analysis for a target design.
func New(tgt *design.Target, opts Options) (*Analysis, error) {
	prod, err := miter.Build(tgt.Circuit)
	if err != nil {
		return nil, err
	}
	prod.Circuit.WarmSupports()
	return &Analysis{Target: tgt, Product: prod, Opts: opts}, nil
}

// Result is the outcome of verifying one proposed safe set.
type Result struct {
	Safe      []string
	Invariant *hhoudini.Invariant // nil = None (set is not provably safe)
	Stats     *hhoudini.Stats
	Examples  int
	// Failed lists the P_fail predicate IDs accumulated during learning
	// (diagnostic: each entry triggered backtracking).
	Failed []string
	// Reason explains a nil invariant when known (e.g. a simulation
	// witness of unsafety).
	Reason string
}

// System builds the transition system for a proposed safe set: the product
// circuit under the environment assumption that every instruction input is
// drawn from the safe set's patterns (Σ ∪ {ε} of Definition 4.4).
//
// The assumption is installed with an explicit EnvKey so the cross-run
// verification cache can identify it: the patterns are put in a canonical
// order first, so two Verify calls over the same safe set produce the same
// key and byte-identical assumption encodings, and any change to the safe
// set changes the key and misses the cache.
func (a *Analysis) System(safe []string) *hhoudini.System {
	// Copy before sorting: pattern generators may hand out shared slices.
	pats := append([]isa.MaskMatch(nil), a.Target.SafePatterns(safe)...)
	sort.Slice(pats, func(i, j int) bool {
		if pats[i].Mask != pats[j].Mask {
			return pats[i].Mask < pats[j].Mask
		}
		return pats[i].Match < pats[j].Match
	})
	port := a.Target.InstrPort
	envKey := fmt.Sprintf("safeset:%s", port)
	for _, mm := range pats {
		envKey += fmt.Sprintf(";%x/%x", uint64(mm.Mask), uint64(mm.Match))
	}
	return &hhoudini.System{
		Circuit: a.Product.Circuit,
		Constrain: func(enc *circuit.Encoder) error {
			lits, err := enc.InputLits(port)
			if err != nil {
				return err
			}
			opts := make([]sat.Lit, len(pats))
			for i, mm := range pats {
				opts[i] = enc.MatchLits(lits, uint64(mm.Mask), uint64(mm.Match))
			}
			enc.AssertLit(enc.OrLits(opts...))
			return nil
		},
		EnvKey:    envKey,
		Namespace: a.Opts.CacheNamespace,
	}
}

// Targets returns the property predicates: Eq over each attacker
// observable (§5, "Eq(v_o^l, v_o^r)").
func (a *Analysis) Targets() []hhoudini.Pred {
	out := make([]hhoudini.Pred, len(a.Target.Observable))
	for i, obs := range a.Target.Observable {
		// An observable missing from the product keeps the zero pair, and
		// Eval reports it by name.
		pair, _ := resolvePair(a.Product, obs)
		out[i] = EqPred{Reg: obs, pair: pair}
	}
	return out
}

// BuildMiner generates examples and constructs the mining oracle for a
// proposed safe set. Exposed separately for the baseline comparison, which
// wants the same predicate universe. It is BuildMinerCtx under a
// background (never-cancelled) context.
func (a *Analysis) BuildMiner(safe []string) (*Miner, []circuit.Snapshot, error) {
	return a.BuildMinerCtx(context.Background(), safe)
}

// BuildMinerCtx is BuildMiner under a context: example generation observes
// cancellation between simulation runs, so an analysis cancelled during
// its (potentially long) setup phase aborts promptly with ctx.Err()
// instead of only noticing once learning starts.
func (a *Analysis) BuildMinerCtx(ctx context.Context, safe []string) (*Miner, []circuit.Snapshot, error) {
	gen, err := newExampleGen(a.Target, a.Product, a.Opts.Examples)
	if err != nil {
		return nil, nil, err
	}
	examples, err := gen.GenerateCtx(ctx, safe)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var rules []design.UopRule
	if a.Target.UopRules != nil && !a.Opts.DisableAnnotations {
		rules = a.Target.UopRules(safe)
	}
	miner, err := NewMiner(a.Product, examples, a.Target.SafePatterns(safe), rules)
	if err != nil {
		return nil, nil, err
	}
	return miner, examples, nil
}

// Verify attempts to prove the proposed safe set: it generates examples,
// mines predicates, and runs H-Houdini for Eq over every observable. A nil
// Invariant in the result means None. It is VerifyCtx under a background
// (never-cancelled) context.
func (a *Analysis) Verify(safe []string) (*Result, error) {
	return a.VerifyCtx(context.Background(), safe)
}

// VerifyCtx is Verify under a context: cancellation interrupts the
// in-flight learning run (in-progress solver queries abort at their next
// interrupt check, the workers drop their solvers, and any bound proof
// store is flushed with the answers memoized so far) and returns ctx.Err().
func (a *Analysis) VerifyCtx(ctx context.Context, safe []string) (*Result, error) {
	res := &Result{Safe: append([]string(nil), safe...)}
	miner, examples, err := a.BuildMinerCtx(ctx, safe)
	if err != nil {
		if unsafe, ok := err.(ErrUnsafe); ok {
			res.Reason = unsafe.Error()
			return res, nil
		}
		return nil, err
	}
	res.Examples = len(examples)

	sys := a.System(safe)
	learner := hhoudini.NewLearner(sys, miner, a.Opts.Learner)
	inv, err := learner.LearnCtx(ctx, a.Targets())
	if err != nil {
		return nil, err
	}
	res.Invariant = inv
	res.Stats = learner.Stats()
	res.Failed = learner.FailedPreds()
	if inv == nil {
		res.Reason = "no inductive invariant exists in the predicate abstraction"
	}
	return res, nil
}

// Audit monolithically re-verifies a learned invariant — initiation,
// consecution and property, through hhoudini.Audit — the paper's
// independent check of the Rocketchip invariant (§6.4). It does not check
// the P-S premise against examples: the example set is dropped once
// mining has built the predicate table.
func (a *Analysis) Audit(res *Result) error {
	if res.Invariant == nil {
		return fmt.Errorf("veloct: nothing to audit (no invariant)")
	}
	sys := a.System(res.Safe)
	return hhoudini.Audit(sys, res.Invariant)
}

// --- Safe-set synthesis (the SISP) ------------------------------------------

// trialPair is an adversarial secret assignment for differential testing.
type trialPair struct{ l, r uint64 }

var trials = []trialPair{
	{0, 3},      // zero vs non-zero: catches zero-skip fast paths
	{2, 3},      // even vs odd: catches parity-based quirks
	{1, 2},      // small values, differing low bits: divisor latencies
	{0xffff, 1}, // extreme vs small
}

// SimUnsafe checks by paired concrete simulation whether an instruction
// exhibits secret-dependent timing: it runs the instruction from
// equal-modulo-secret states with adversarial and random secret pairs and
// compares the observable traces. A true result is a concrete
// counterexample (the instruction is definitely unsafe); false means no
// violation was found. Each trial pair is one run of the example
// generator's lane loop, with collection off.
func (a *Analysis) SimUnsafe(mn string, extraRandom int) (bool, error) {
	rng := rand.New(rand.NewSource(a.Opts.Examples.Seed + 7))
	pairs := append([]trialPair(nil), trials...)
	for i := 0; i < extraRandom; i++ {
		l, r := rng.Uint64()&0xffff, rng.Uint64()&0xffff
		if l == r {
			r ^= 1
		}
		pairs = append(pairs, trialPair{l, r})
	}
	g, err := newExampleGen(a.Target, a.Product, a.Opts.Examples)
	if err != nil {
		return false, err
	}
	port, ok := a.Product.Circuit.Input(a.Target.InstrPort)
	if !ok {
		return false, fmt.Errorf("circuit: unknown input %q", a.Target.InstrPort)
	}
	// One run per pair, encoded in pair order: the pair on every secret
	// register, then NOP, NOP, the instruction and MaxLatency+2 NOPs. An
	// encoding error ends the list, and is returned only if no earlier
	// pair witnessed a leak.
	var runs []runPlan
	var encErr error
	for _, p := range pairs {
		w, err := a.Target.Encode(mn, rng)
		if err != nil {
			encErr = err
			break
		}
		secrets := make([]uint64, 0, 2*len(g.secretsL))
		for range g.secretsL {
			secrets = append(secrets, p.l, p.r)
		}
		runs = append(runs, runPlan{name: mn, secrets: secrets, instrs: []uint64{w}, tail: a.Target.MaxLatency + 2})
	}
	lanes := circuit.NewLanes(a.Product.Circuit)
	for lo := 0; lo < len(runs); lo += circuit.NumLanes {
		err := g.simulate(context.Background(), lanes, port, runs[lo:min(lo+circuit.NumLanes, len(runs))], nil)
		if _, leak := err.(ErrUnsafe); leak {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
	return false, encErr
}

// Synthesis is the outcome of safe instruction set synthesis.
type Synthesis struct {
	Safe   []string
	Unsafe []string
	// UnsafeByCategory lists instructions excluded a priori (memory and
	// control flow), as the paper categorizes them manually.
	UnsafeByCategory []string
	Result           *Result // verification of the final safe set
}

// Synthesize solves the SISP for the target: it filters the candidate
// instructions by differential simulation (concrete unsafety witnesses),
// verifies the surviving set with H-Houdini, and shrinks further if
// verification fails to attribute the failure. The returned synthesis
// carries the proving invariant. It is SynthesizeCtx under a background
// (never-cancelled) context.
func (a *Analysis) Synthesize() (*Synthesis, error) {
	return a.SynthesizeCtx(context.Background())
}

// SynthesizeCtx is Synthesize under a context: each verification round
// runs under ctx, so cancellation interrupts the in-flight learning run
// and returns ctx.Err() between (or inside) rounds.
func (a *Analysis) SynthesizeCtx(ctx context.Context) (*Synthesis, error) {
	syn := &Synthesis{}
	inCand := make(map[string]bool)
	for _, mn := range a.Target.CandidateSafe {
		inCand[mn] = true
	}
	for _, mn := range a.Target.Ops {
		if !inCand[mn] && mn != "nop" {
			syn.UnsafeByCategory = append(syn.UnsafeByCategory, mn)
		}
	}

	var safe []string
	for _, mn := range a.Target.CandidateSafe {
		bad, err := a.SimUnsafe(mn, 4)
		if err != nil {
			return nil, err
		}
		if bad {
			syn.Unsafe = append(syn.Unsafe, mn)
		} else {
			safe = append(safe, mn)
		}
	}

	// Verify the surviving set; on failure, attribute by dropping one
	// instruction at a time (bounded — in practice simulation catches the
	// unsafe instructions first).
	for attempts := 0; ; attempts++ {
		if attempts > len(a.Target.CandidateSafe) {
			return nil, fmt.Errorf("veloct: synthesis failed to converge")
		}
		res, err := a.VerifyCtx(ctx, safe)
		if err != nil {
			return nil, err
		}
		if res.Invariant != nil {
			syn.Safe = safe
			syn.Result = res
			sort.Strings(syn.Unsafe)
			return syn, nil
		}
		if len(safe) == 0 {
			syn.Safe = nil
			syn.Result = res
			return syn, nil
		}
		victim, rest, err := a.attribute(ctx, safe)
		if err != nil {
			return nil, err
		}
		syn.Unsafe = append(syn.Unsafe, victim)
		safe = rest
	}
}

// attribute picks the instruction to drop when a set fails verification:
// the first instruction whose singleton set also fails, or failing that
// the last instruction.
func (a *Analysis) attribute(ctx context.Context, safe []string) (victim string, rest []string, err error) {
	for i, mn := range safe {
		res, err := a.VerifyCtx(ctx, []string{mn})
		if err != nil {
			return "", nil, err
		}
		if res.Invariant == nil {
			rest = append(append([]string(nil), safe[:i]...), safe[i+1:]...)
			return mn, rest, nil
		}
	}
	victim = safe[len(safe)-1]
	return victim, safe[:len(safe)-1], nil
}
