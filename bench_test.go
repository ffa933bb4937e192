package hhoudini_test

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus one per ablation DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks exercise the small/medium designs so -bench=. stays tractable;
// the full sweep over every variant (including MegaOoO) lives in
// cmd/experiments, which prints the same rows the paper reports.

import (
	"fmt"
	"testing"

	hh "hhoudini"
)

var safeALU = []string{
	"add", "addi", "sub", "xor", "xori", "and", "andi", "or", "ori",
	"sll", "slli", "srl", "srli", "sra", "srai",
	"lui", "slt", "slti", "sltu", "sltiu",
}

func inOrderSafe() []string { return append(append([]string{}, safeALU...), "auipc") }
func oooSafe() []string {
	return append(append([]string{}, safeALU...), "mul", "mulh", "mulhu", "mulhsu")
}

func mustInOrder(b *testing.B) *hh.Target {
	b.Helper()
	t, err := hh.NewInOrder()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func mustOoO(b *testing.B, v hh.OoOVariant) *hh.Target {
	b.Helper()
	t, err := hh.NewOoO(v)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// cold gives the analysis a private, empty cache, so its next verification
// solves every query: these benchmarks pin per-run behaviour (every
// iteration a from-scratch verification), and a cache warmed across b.N
// iterations would measure memo hits instead.
func cold(a *hh.Analysis) *hh.Analysis {
	a.Opts.Learner.Cache = hh.NewVerifyCache()
	return a
}

func mustVerify(b *testing.B, tgt *hh.Target, safe []string, opts hh.AnalysisOptions) *hh.Result {
	b.Helper()
	a, err := hh.NewAnalysis(tgt, opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := cold(a).Verify(safe)
	if err != nil {
		b.Fatal(err)
	}
	if res.Invariant == nil {
		b.Fatalf("%s: verification failed: %s", tgt.Name, res.Reason)
	}
	return res
}

// BenchmarkTable1InvariantSize regenerates Table 1's rows (design size in
// state bits, learned invariant size) for the small designs.
func BenchmarkTable1InvariantSize(b *testing.B) {
	for _, mk := range []func(*testing.B) (*hh.Target, []string){
		func(b *testing.B) (*hh.Target, []string) { return mustInOrder(b), inOrderSafe() },
		func(b *testing.B) (*hh.Target, []string) { return mustOoO(b, hh.SmallOoO), oooSafe() },
	} {
		tgt, safe := mk(b)
		b.Run(tgt.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustVerify(b, tgt, safe, hh.DefaultAnalysisOptions())
				b.ReportMetric(float64(tgt.Circuit.NumStateBits()), "statebits")
				b.ReportMetric(float64(res.Invariant.Size()), "invariant")
			}
		})
	}
}

// BenchmarkTable2SafeSet regenerates Table 2: full safe-set synthesis on
// the in-order core (the per-instruction classification plus the proof).
func BenchmarkTable2SafeSet(b *testing.B) {
	tgt := mustInOrder(b)
	a, err := hh.NewAnalysis(tgt, hh.DefaultAnalysisOptions())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		syn, err := cold(a).Synthesize()
		if err != nil {
			b.Fatal(err)
		}
		if len(syn.Safe) == 0 || syn.Result.Invariant == nil {
			b.Fatal("synthesis failed")
		}
		b.ReportMetric(float64(len(syn.Safe)), "safe")
		b.ReportMetric(float64(len(syn.Unsafe)), "unsafe")
	}
}

// BenchmarkFig2Parallelism regenerates Figure 2's series: learning time as
// the worker count scales.
func BenchmarkFig2Parallelism(b *testing.B) {
	tgt := mustOoO(b, hh.MediumOoO)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := hh.DefaultAnalysisOptions()
			opts.Learner.Workers = workers
			for i := 0; i < b.N; i++ {
				mustVerify(b, tgt, oooSafe(), opts)
			}
		})
	}
}

// BenchmarkFig3Scaling regenerates Figure 3's series: learning time vs.
// design size at a fixed worker count.
func BenchmarkFig3Scaling(b *testing.B) {
	targets := []*hh.Target{
		mustInOrder(b),
		mustOoO(b, hh.SmallOoO),
		mustOoO(b, hh.MediumOoO),
	}
	safe := map[string][]string{
		"InOrder": inOrderSafe(), "SmallOoO": oooSafe(), "MediumOoO": oooSafe(),
	}
	for _, tgt := range targets {
		b.Run(fmt.Sprintf("%s/bits=%d", tgt.Name, tgt.Circuit.NumStateBits()), func(b *testing.B) {
			opts := hh.DefaultAnalysisOptions()
			opts.Learner.Workers = 0 // all cores, the paper's fixed-cluster line
			for i := 0; i < b.N; i++ {
				mustVerify(b, tgt, safe[tgt.Name], opts)
			}
		})
	}
}

// BenchmarkFig4QueryTime regenerates Figure 4's metrics: median SMT query
// and task times, reported per design.
func BenchmarkFig4QueryTime(b *testing.B) {
	for _, v := range []hh.OoOVariant{hh.SmallOoO, hh.MediumOoO} {
		tgt := mustOoO(b, v)
		b.Run(tgt.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustVerify(b, tgt, oooSafe(), hh.DefaultAnalysisOptions())
				b.ReportMetric(float64(res.Stats.MedianQueryTime().Microseconds()), "query-us")
				b.ReportMetric(float64(res.Stats.MedianTaskTime().Microseconds()), "task-us")
			}
		})
	}
}

// BenchmarkFig5Backtracks regenerates Figure 5's metrics: tasks and
// backtracks per design.
func BenchmarkFig5Backtracks(b *testing.B) {
	for _, v := range []hh.OoOVariant{hh.SmallOoO, hh.MediumOoO} {
		tgt := mustOoO(b, v)
		b.Run(tgt.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustVerify(b, tgt, oooSafe(), hh.DefaultAnalysisOptions())
				b.ReportMetric(float64(res.Stats.Tasks), "tasks")
				b.ReportMetric(float64(res.Stats.Backtracks), "backtracks")
			}
		})
	}
}

// BenchmarkSpeedupVsBaselines regenerates the headline comparison: the
// identical (deliberately weak, per the paper's ConjunCT setting) predicate
// universe solved by H-Houdini vs. monolithic Houdini vs. Sorcar.
func BenchmarkSpeedupVsBaselines(b *testing.B) {
	tgt := mustOoO(b, hh.SmallOoO)
	opts := hh.DefaultAnalysisOptions()
	opts.Examples.RunsPerInstr = 1
	opts.Examples.CompositionRuns = 0
	a, err := hh.NewAnalysis(tgt, opts)
	if err != nil {
		b.Fatal(err)
	}
	safe := oooSafe()
	miner, _, err := a.BuildMiner(safe)
	if err != nil {
		b.Fatal(err)
	}
	universe, err := miner.Universe()
	if err != nil {
		b.Fatal(err)
	}
	sys := a.System(safe)
	targets := a.Targets()

	b.Run("HHoudini", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := cold(a).Verify(safe)
			if err != nil || res.Invariant == nil {
				b.Fatalf("err=%v", err)
			}
		}
	})
	b.Run("Houdini", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inv, err := hh.Houdini(sys, universe, targets, hh.BaselineOptions{}, nil)
			if err != nil || inv == nil {
				b.Fatalf("err=%v", err)
			}
		}
	})
	b.Run("Sorcar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inv, err := hh.Sorcar(sys, universe, targets, hh.BaselineOptions{}, nil)
			if err != nil || inv == nil {
				b.Fatalf("err=%v", err)
			}
		}
	})
}

// --- Ablations (DESIGN.md) ----------------------------------------------------

// BenchmarkAblationExampleFiltering compares the paper's example regimes:
// rich compositions (near-zero backtracking) against the weak single-run
// examples (backtracking compensates).
func BenchmarkAblationExampleFiltering(b *testing.B) {
	tgt := mustOoO(b, hh.SmallOoO)
	configs := map[string]hh.ExampleConfig{
		"rich": hh.DefaultAnalysisOptions().Examples,
		"weak": {Seed: 1, RunsPerInstr: 1, DirtyPreamble: true},
	}
	for name, cfg := range configs {
		b.Run(name, func(b *testing.B) {
			opts := hh.DefaultAnalysisOptions()
			opts.Examples = cfg
			for i := 0; i < b.N; i++ {
				res := mustVerify(b, tgt, oooSafe(), opts)
				b.ReportMetric(float64(res.Stats.Backtracks), "backtracks")
			}
		})
	}
}

// BenchmarkAblationExampleMasking measures the cost of detecting that a
// proof is impossible when example masking is disabled (the §5.2.1
// ablation; the verification itself returns None).
func BenchmarkAblationExampleMasking(b *testing.B) {
	tgt := mustOoO(b, hh.SmallOoO)
	opts := hh.DefaultAnalysisOptions()
	opts.Examples.DisableMasking = true
	a, err := hh.NewAnalysis(tgt, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := cold(a).Verify(oooSafe())
		if err != nil {
			b.Fatal(err)
		}
		if res.Invariant != nil {
			b.Fatal("expected None without masking")
		}
	}
}

// BenchmarkAblationMemoization contrasts learning all observables in one
// shared learner (memoized overlapping cones) against fresh learners per
// property — the §3.2.1 memoization benefit. The in-order core has one
// observable, so this uses the underlying learner API over both Eq targets
// of the miter'd ExecStage outputs.
func BenchmarkAblationMemoization(b *testing.B) {
	tgt := mustOoO(b, hh.SmallOoO)
	a, err := hh.NewAnalysis(tgt, hh.DefaultAnalysisOptions())
	if err != nil {
		b.Fatal(err)
	}
	safe := oooSafe()
	miner, _, err := a.BuildMiner(safe)
	if err != nil {
		b.Fatal(err)
	}
	sys := a.System(safe)
	// Two related properties sharing almost their entire cone.
	targets := []hh.Pred{
		hh.EqPred{Reg: "retire_valid"},
		hh.EqPred{Reg: "rob_head"},
	}
	lopts := hh.DefaultLearnerOptions()
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lopts.Cache = hh.NewVerifyCache() // isolate the shared-vs-separate contrast
			l := hh.NewLearner(sys, miner, lopts)
			inv, err := l.Learn(targets)
			if err != nil || inv == nil {
				b.Fatalf("err=%v", err)
			}
			b.ReportMetric(float64(l.Stats().Tasks), "tasks")
		}
	})
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var tasks int64
			for _, t := range targets {
				lopts.Cache = hh.NewVerifyCache()
				l := hh.NewLearner(sys, miner, lopts)
				inv, err := l.Learn([]hh.Pred{t})
				if err != nil || inv == nil {
					b.Fatalf("err=%v", err)
				}
				tasks += l.Stats().Tasks
			}
			b.ReportMetric(float64(tasks), "tasks")
		}
	})
}

// BenchmarkSATSolver measures the raw decision-procedure substrate on a
// pigeonhole instance (pure solver throughput).
func BenchmarkSATSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := hh.NewSATSolver()
		// PHP(7,6) — small but non-trivial UNSAT instance.
		const pigeons, holes = 7, 6
		lit := func(p, h int) hh.SATLit {
			v := p*holes + h
			for s.NumVars() <= v {
				s.NewVar()
			}
			return hh.SATLit(2 * v)
		}
		for p := 0; p < pigeons; p++ {
			cl := make([]hh.SATLit, holes)
			for h := 0; h < holes; h++ {
				cl[h] = lit(p, h)
			}
			s.AddClause(cl...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					s.AddClause(lit(p1, h).Not(), lit(p2, h).Not())
				}
			}
		}
		if st := s.Solve(); st != hh.SATUnsat {
			b.Fatalf("got %v", st)
		}
	}
}

// BenchmarkSimulation measures raw cycle throughput of the product-circuit
// simulator on the medium OoO design.
func BenchmarkSimulation(b *testing.B) {
	tgt := mustOoO(b, hh.MediumOoO)
	m, err := hh.BuildMiter(tgt.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	sim := hh.NewSim(m.Circuit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(hh.Inputs{"instr": 0x13}); err != nil {
			b.Fatal(err)
		}
	}
}
