// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic designs:
//
//	experiments -table1     design sizes and invariant sizes (Table 1)
//	experiments -table2     synthesized safe instruction sets (Table 2)
//	experiments -fig2       learning time vs. number of parallel workers
//	experiments -fig3       learning time vs. design size (fixed and ∞ cores)
//	experiments -fig4       median SMT-query and task time vs. design size
//	experiments -fig5       tasks and backtracks vs. design size
//	experiments -speedup    H-Houdini vs. Houdini/Sorcar (ConjunCT baseline)
//	experiments -audit      monolithic re-verification of learned invariants
//	experiments -ablations  design-choice ablations (cores, budgets, caches,
//	                        masking, annotations, example richness)
//	experiments -conetransfer  cone-level cache transfer across designs
//	experiments -all        everything above
//
// Use -quick to restrict the sweeps to the smaller design variants and
// -cpuprofile/-memprofile to capture pprof profiles of a sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	hh "hhoudini"
)

// runCtx is the sweep-wide context: the first SIGINT/SIGTERM cancels it, so
// the in-flight learning run interrupts its solvers, drains and flushes any
// bound proof store before the process exits through die(); a second signal
// force-exits (default disposition is restored after the first).
var runCtx context.Context = context.Background()

var (
	flagTable1    = flag.Bool("table1", false, "Table 1: design and invariant sizes")
	flagTable2    = flag.Bool("table2", false, "Table 2: synthesized safe sets")
	flagFig2      = flag.Bool("fig2", false, "Figure 2: time vs. parallel workers")
	flagFig3      = flag.Bool("fig3", false, "Figure 3: time vs. design size")
	flagFig4      = flag.Bool("fig4", false, "Figure 4: query/task time vs. design size")
	flagFig5      = flag.Bool("fig5", false, "Figure 5: tasks and backtracks vs. design size")
	flagSpeedup   = flag.Bool("speedup", false, "H-Houdini vs. monolithic baselines")
	flagAudit     = flag.Bool("audit", false, "monolithic audit of learned invariants")
	flagAblations = flag.Bool("ablations", false, "design-choice ablations")
	flagConeXfer  = flag.Bool("conetransfer", false, "cone-level cache transfer: warm a design from a different design's proof store")
	flagAll       = flag.Bool("all", false, "run everything")
	flagQuick     = flag.Bool("quick", false, "restrict sweeps to small variants")
	flagCPUProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	flagMemProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

// startProfiles begins CPU profiling when -cpuprofile is set; stopProfiles
// — called on every exit path — stops it and writes the -memprofile heap
// snapshot.
func startProfiles() {
	if *flagCPUProf == "" {
		return
	}
	f, err := os.Create(*flagCPUProf)
	if err != nil {
		die(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		die(err)
	}
}

var stopProfiles = sync.OnceFunc(func() {
	if *flagCPUProf != "" {
		pprof.StopCPUProfile()
	}
	if *flagMemProf != "" {
		f, err := os.Create(*flagMemProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
		}
	}
})

func main() {
	flag.Parse()
	any := *flagTable1 || *flagTable2 || *flagFig2 || *flagFig3 || *flagFig4 ||
		*flagFig5 || *flagSpeedup || *flagAudit || *flagAblations ||
		*flagConeXfer || *flagAll
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	startProfiles()
	defer stopProfiles()
	var cancel context.CancelFunc
	runCtx, cancel = context.WithCancel(runCtx)
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "experiments: %v: cancelling (a second signal force-exits)\n", sig)
		signal.Stop(sigc) // second signal takes the default (terminating) action
		cancel()
	}()
	if *flagAll || *flagTable1 {
		table1()
	}
	if *flagAll || *flagTable2 {
		table2()
	}
	if *flagAll || *flagFig2 {
		fig2()
	}
	if *flagAll || *flagFig3 {
		fig3()
	}
	if *flagAll || *flagFig4 {
		fig4()
	}
	if *flagAll || *flagFig5 {
		fig5()
	}
	if *flagAll || *flagSpeedup {
		speedup()
	}
	if *flagAll || *flagAudit {
		audit()
	}
	if *flagAll || *flagAblations {
		ablations()
	}
	if *flagAll || *flagConeXfer {
		conetransfer()
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	// os.Exit skips defers: flush any proof stores bound during the sweep
	// (the ablation/conetransfer rows open them) so a cancellation mid-sweep
	// still persists partial progress.
	if cerr := hh.CloseProofDBs(); cerr != nil {
		fmt.Fprintln(os.Stderr, "experiments: proof store close:", cerr)
	}
	stopProfiles()
	os.Exit(1)
}

// evalTargets returns the designs of the evaluation in size order.
func evalTargets(quick bool) []*hh.Target {
	var out []*hh.Target
	inorder, err := hh.NewInOrder()
	if err != nil {
		die(err)
	}
	out = append(out, inorder)
	variants := hh.OoOVariants()
	if quick {
		variants = variants[:2]
	}
	for _, v := range variants {
		t, err := hh.NewOoO(v)
		if err != nil {
			die(err)
		}
		out = append(out, t)
	}
	return out
}

// safeSetFor returns the Table 2 safe set used for the scaling sweeps.
func safeSetFor(t *hh.Target) []string {
	base := []string{
		"add", "addi", "sub", "xor", "xori", "and", "andi", "or", "ori",
		"sll", "slli", "srl", "srli", "sra", "srai",
		"lui", "slt", "slti", "sltu", "sltiu",
	}
	if t.Name == "InOrder" {
		return append(base, "auipc")
	}
	return append(base, "mul", "mulh", "mulhu", "mulhsu")
}

func verify(t *hh.Target, opts hh.AnalysisOptions) (*hh.Analysis, *hh.Result) {
	// Every figure/table run gets a private, cold cache: no run inherits
	// another's answers, keeping the sweep's timings comparable.
	if opts.Learner.Cache == nil {
		opts.Learner.Cache = hh.NewVerifyCache()
	}
	a, err := hh.NewAnalysis(t, opts)
	if err != nil {
		die(err)
	}
	res, err := a.VerifyCtx(runCtx, safeSetFor(t))
	if err != nil {
		die(err)
	}
	if res.Invariant == nil {
		die(fmt.Errorf("%s: verification unexpectedly failed: %s", t.Name, res.Reason))
	}
	return a, res
}

func header(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

// table1 mirrors Table 1: design complexity and learned invariant size.
func table1() {
	header("Table 1: evaluated designs and invariant sizes")
	fmt.Printf("%-12s %14s %16s\n", "Target", "Size (# bits)", "Invariant Size")
	for _, t := range evalTargets(*flagQuick) {
		_, res := verify(t, hh.DefaultAnalysisOptions())
		fmt.Printf("%-12s %14d %16d\n", t.Name, t.Circuit.NumStateBits(), res.Invariant.Size())
	}
}

// table2 mirrors Table 2: the synthesized safe instruction sets.
func table2() {
	header("Table 2: safe instruction sets synthesized by VeloCT")
	for _, t := range evalTargets(*flagQuick) {
		a, err := hh.NewAnalysis(t, hh.DefaultAnalysisOptions())
		if err != nil {
			die(err)
		}
		syn, err := a.SynthesizeCtx(runCtx)
		if err != nil {
			die(err)
		}
		safe := append([]string(nil), syn.Safe...)
		sort.Strings(safe)
		fmt.Printf("%-12s safe:   %s\n", t.Name, strings.Join(safe, ", "))
		fmt.Printf("%-12s unsafe: %s (by category: %s)\n", "",
			strings.Join(syn.Unsafe, ", "), strings.Join(syn.UnsafeByCategory, ", "))
	}
}

// fig2 mirrors Figure 2: execution time scaling with parallel workers.
// Measured walls are meaningful only up to the host's core count; the span
// column is the critical-path length through the task dependency graph —
// the time an unbounded-core execution cannot go below — and work/span is
// the maximum useful parallelism. The paper's takeaway (the span grows
// with design size, so larger designs benefit from more parallelism)
// reads directly off the last two columns.
func fig2() {
	header("Figure 2: execution time (s) vs. # of parallel workers")
	workerCounts := []int{1, 2, 4, 8}
	fmt.Printf("(host exposes %d hardware threads)\n", runtime.GOMAXPROCS(0))
	fmt.Printf("%-12s", "Target")
	for _, w := range workerCounts {
		fmt.Printf(" %9s", fmt.Sprintf("w=%d", w))
	}
	fmt.Printf(" %10s %10s %10s\n", "work(s)", "span(s)", "work/span")
	for _, t := range evalTargets(*flagQuick) {
		fmt.Printf("%-12s", t.Name)
		var serial *hh.Result
		for _, w := range workerCounts {
			opts := hh.DefaultAnalysisOptions()
			opts.Learner.Workers = w
			start := time.Now()
			_, res := verify(t, opts)
			if w == 1 {
				serial = res // span from the uncontended run
			}
			fmt.Printf(" %9.2f", time.Since(start).Seconds())
		}
		work := serial.Stats.TotalTaskTime().Seconds()
		span := serial.Stats.Span().Seconds()
		fmt.Printf(" %10.2f %10.2f %10.1f\n", work, span, work/span)
	}
}

// fig3 mirrors Figure 3: execution time vs. design size for the host's
// core count and for "infinite" cores. The ∞-core line is the measured
// span (critical path): with unbounded workers the wall time converges to
// it, which is how the paper estimates the same series on its Anyscale
// cluster.
func fig3() {
	header("Figure 3: execution time (s) vs. design size")
	fixed := runtime.GOMAXPROCS(0)
	fmt.Printf("%-12s %12s %14s %14s\n", "Target", "Size (bits)",
		fmt.Sprintf("w=%d", fixed), "w=inf (span)")
	for _, t := range evalTargets(*flagQuick) {
		optsF := hh.DefaultAnalysisOptions()
		optsF.Learner.Workers = fixed
		start := time.Now()
		_, res := verify(t, optsF)
		tFixed := time.Since(start)
		fmt.Printf("%-12s %12d %14.2f %14.2f\n",
			t.Name, t.Circuit.NumStateBits(), tFixed.Seconds(),
			res.Stats.Span().Seconds())
	}
}

// fig4 mirrors Figure 4: median SMT query time and median task time.
func fig4() {
	header("Figure 4: median SMT query / task time vs. design size")
	fmt.Printf("%-12s %12s %16s %16s %12s %12s\n",
		"Target", "Size (bits)", "Median query", "Median task", "p95 task", "p99 task")
	for _, t := range evalTargets(*flagQuick) {
		_, res := verify(t, hh.DefaultAnalysisOptions())
		fmt.Printf("%-12s %12d %16v %16v %12v %12v\n",
			t.Name, t.Circuit.NumStateBits(),
			res.Stats.MedianQueryTime().Round(time.Microsecond),
			res.Stats.MedianTaskTime().Round(time.Microsecond),
			res.Stats.TaskTimePercentile(0.95).Round(time.Microsecond),
			res.Stats.TaskTimePercentile(0.99).Round(time.Microsecond))
	}
}

// fig5 mirrors Figure 5: total tasks and backtracks vs. design size.
func fig5() {
	header("Figure 5: tasks and backtracks vs. design size")
	fmt.Printf("%-12s %12s %10s %12s\n", "Target", "Size (bits)", "Tasks", "Backtracks")
	for _, t := range evalTargets(*flagQuick) {
		_, res := verify(t, hh.DefaultAnalysisOptions())
		fmt.Printf("%-12s %12d %10d %12d\n",
			t.Name, t.Circuit.NumStateBits(), res.Stats.Tasks, res.Stats.Backtracks)
	}
}

// speedup compares H-Houdini against the monolithic Houdini and Sorcar
// baselines on the identical predicate universe. Following the paper's
// setting (ConjunCT's examples were not exhaustive), the comparison uses a
// deliberately weak example set; H-Houdini compensates with backtracking
// while the baselines pay full-design queries per refinement round.
func speedup() {
	header("Speedup: H-Houdini vs. monolithic Houdini/Sorcar (weak examples)")
	fmt.Printf("%-12s %10s %12s %12s %12s %10s %10s\n",
		"Target", "Universe", "H-Houdini", "Houdini", "Sorcar", "H rounds", "S rounds")
	for _, t := range evalTargets(*flagQuick) {
		opts := hh.DefaultAnalysisOptions()
		opts.Examples.RunsPerInstr = 1
		opts.Examples.CompositionRuns = 0
		opts.Learner.Cache = hh.NewVerifyCache() // cold per run; see verify()
		a, err := hh.NewAnalysis(t, opts)
		if err != nil {
			die(err)
		}
		safe := safeSetFor(t)

		start := time.Now()
		res, err := a.VerifyCtx(runCtx, safe)
		if err != nil {
			die(err)
		}
		hhTime := time.Since(start)
		if res.Invariant == nil {
			die(fmt.Errorf("%s: H-Houdini failed under weak examples: %s", t.Name, res.Reason))
		}

		miner, _, err := a.BuildMiner(safe)
		if err != nil {
			die(err)
		}
		universe, err := miner.Universe()
		if err != nil {
			die(err)
		}
		sys := a.System(safe)
		targets := a.Targets()
		bopts := hh.BaselineOptions{MaxConflictsPerQuery: 50_000_000}

		var hStats hh.BaselineStats
		start = time.Now()
		if _, err := hh.Houdini(sys, universe, targets, bopts, &hStats); err != nil {
			die(err)
		}
		houdiniTime := time.Since(start)

		var sStats hh.BaselineStats
		start = time.Now()
		if _, err := hh.Sorcar(sys, universe, targets, bopts, &sStats); err != nil {
			die(err)
		}
		sorcarTime := time.Since(start)

		fmt.Printf("%-12s %10d %12.2f %12.2f %12.2f %10d %10d\n",
			t.Name, len(universe), hhTime.Seconds(), houdiniTime.Seconds(),
			sorcarTime.Seconds(), hStats.Rounds, sStats.Rounds)
	}
}

// audit monolithically re-verifies every learned invariant (§6.4's check).
func audit() {
	header("Audit: monolithic verification of learned invariants")
	for _, t := range evalTargets(*flagQuick) {
		a, res := verify(t, hh.DefaultAnalysisOptions())
		start := time.Now()
		if err := a.Audit(res); err != nil {
			die(fmt.Errorf("%s: %v", t.Name, err))
		}
		fmt.Printf("%-12s invariant of %4d predicates: initiation+consecution+property OK (%v)\n",
			t.Name, res.Invariant.Size(), time.Since(start).Round(time.Millisecond))
	}
}

// ablations measures the design choices DESIGN.md calls out.
func ablations() {
	header("Ablations (SmallOoO unless noted)")
	tgt, err := hh.NewOoO(hh.SmallOoO)
	if err != nil {
		die(err)
	}
	safe := safeSetFor(tgt)
	run := func(name string, opts hh.AnalysisOptions) {
		// Isolate each row from the others (cold private cache) so rows are
		// comparable; the dedicated rows below measure the cache itself.
		if opts.Learner.Cache == nil {
			opts.Learner.Cache = hh.NewVerifyCache()
		}
		a, err := hh.NewAnalysis(tgt, opts)
		if err != nil {
			die(err)
		}
		start := time.Now()
		res, err := a.VerifyCtx(runCtx, safe)
		if err != nil {
			die(err)
		}
		status := "ok"
		size, tasks, backtracks := 0, int64(0), int64(0)
		var encClauses, solvers int64
		if res.Invariant == nil {
			status = "NONE"
		} else {
			size = res.Invariant.Size()
		}
		var diskHits int64
		if res.Stats != nil {
			tasks, backtracks = res.Stats.Tasks, res.Stats.Backtracks
			encClauses, solvers = res.Stats.EncodedClauses, res.Stats.SolverAllocs
			diskHits = res.Stats.CacheDiskHits
		}
		extra := ""
		if diskHits > 0 {
			extra = fmt.Sprintf(" disk-hits=%d", diskHits)
		}
		fmt.Printf("%-34s %-5s time=%8.2fs inv=%4d tasks=%5d backtracks=%5d solvers=%5d enc-clauses=%9d%s\n",
			name, status, time.Since(start).Seconds(), size, tasks, backtracks, solvers, encClauses, extra)
	}

	run("default", hh.DefaultAnalysisOptions())

	// Warm cache: verify once into a private cache, then measure a second,
	// fully warmed verification of the same system.
	o := hh.DefaultAnalysisOptions()
	o.Learner.Cache = hh.NewVerifyCache()
	{
		a, err := hh.NewAnalysis(tgt, o)
		if err != nil {
			die(err)
		}
		if res, err := a.VerifyCtx(runCtx, safe); err != nil || res.Invariant == nil {
			die(fmt.Errorf("cache warmup failed: %v", err))
		}
	}
	run("warm cache (2nd run)", o)

	// Persistent proof store: a cold process (empty store) vs. a fresh
	// process restored from the same on-disk store. Fresh VerifyCache
	// instances on both rows make the second a faithful model of a new
	// process whose only warmth is what proofdb restored from disk.
	if dir, err := os.MkdirTemp("", "hh-proofdb-*"); err == nil {
		o = hh.DefaultAnalysisOptions()
		o.Learner.Cache = hh.NewVerifyCache()
		o.Learner.CacheDir = dir
		run("proofdb cold process (empty store)", o)
		hh.CloseProofDBs() // simulate process exit: final flush, drop state

		o = hh.DefaultAnalysisOptions()
		o.Learner.Cache = hh.NewVerifyCache()
		o.Learner.CacheDir = dir
		run("proofdb warm process (restored)", o)
		hh.CloseProofDBs()
		os.RemoveAll(dir)
	}

	// Weak examples (no compositions) make the learner backtrack. At one
	// worker that is the regime where a per-query solver costs most: each
	// backtrack re-queries a cone from scratch. Both rows keep it visible.
	weakWorkers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		weakWorkers = append(weakWorkers, n)
	}
	for _, w := range weakWorkers {
		o = hh.DefaultAnalysisOptions()
		o.Examples.RunsPerInstr = 1
		o.Examples.CompositionRuns = 0
		o.Learner.Workers = w
		name := "weak examples, one worker"
		if w != 1 {
			name = fmt.Sprintf("weak examples, workers=%d", w)
		}
		run(name, o)
	}

	o = hh.DefaultAnalysisOptions()
	o.Examples.DisableMasking = true
	run("no example masking", o)

	o = hh.DefaultAnalysisOptions()
	o.DisableAnnotations = true
	run("no expert annotations", o)

	o = hh.DefaultAnalysisOptions()
	o.Learner.Workers = runtime.GOMAXPROCS(0)
	run(fmt.Sprintf("parallel (workers=%d)", runtime.GOMAXPROCS(0)), o)
}

// conetransfer measures what the cone-fingerprint cache keys buy: a proof
// store populated by verifying one design ("donor") warms the verification
// of a DIFFERENT design ("recipient") exactly as far as their target cones
// are isomorphic. Each donor→recipient pair runs through an on-disk proof
// store with hh.CloseProofDBs() between runs, so each row models two
// separate processes. The recipient is also verified cold; the warm
// invariant must match it in size (transfer changes where answers come
// from, not what is learned).
//
// The MediumOoO → MediumOoO+dbg pair is the headline: the recipient differs
// only by an unread debug counter, so every target cone is untouched and
// the warm fraction approaches 1. SmallOoO → MediumOoO is the honest structural-transfer
// row: queue/ROB resizing rewrites most cones (see EXPERIMENTS.md), so
// only size-independent cones (register file, early multiplier pipeline)
// carry over.
func conetransfer() {
	header("Cone-level cache transfer: warm a design from another design's proof store")

	mkOoO := func(v hh.OoOVariant) *hh.Target {
		t, err := hh.NewOoO(v)
		if err != nil {
			die(err)
		}
		return t
	}
	dbgOf := func(v hh.OoOVariant) hh.OoOVariant {
		v.Name += "+dbg"
		v.DebugCounter = true
		return v
	}

	type pair struct{ donor, recipient *hh.Target }
	var pairs []pair
	if *flagQuick {
		pairs = []pair{{mkOoO(hh.SmallOoO), mkOoO(dbgOf(hh.SmallOoO))}}
	} else {
		pairs = []pair{
			{mkOoO(hh.MediumOoO), mkOoO(dbgOf(hh.MediumOoO))},
			{mkOoO(hh.SmallOoO), mkOoO(hh.MediumOoO)},
		}
	}

	fmt.Printf("%-28s %9s %9s %8s %8s %10s %10s %9s\n",
		"donor -> recipient", "cold(s)", "warm(s)", "inv", "queries", "memo-hits", "disk-hits", "warmfrac")
	for _, p := range pairs {
		// Cold recipient baseline (verify gives it a private, empty cache).
		start := time.Now()
		_, coldRes := verify(p.recipient, hh.DefaultAnalysisOptions())
		coldWall := time.Since(start)

		dir, err := os.MkdirTemp("", "hh-conexfer-*")
		if err != nil {
			die(err)
		}
		donorOpts := hh.DefaultAnalysisOptions()
		donorOpts.Learner.Cache = hh.NewVerifyCache()
		donorOpts.Learner.CacheDir = dir
		verify(p.donor, donorOpts)
		if err := hh.CloseProofDBs(); err != nil {
			die(err)
		}

		warmOpts := hh.DefaultAnalysisOptions()
		warmOpts.Learner.Cache = hh.NewVerifyCache()
		warmOpts.Learner.CacheDir = dir
		start = time.Now()
		_, warmRes := verify(p.recipient, warmOpts)
		warmWall := time.Since(start)
		if err := hh.CloseProofDBs(); err != nil {
			die(err)
		}
		os.RemoveAll(dir)

		if warmRes.Invariant.Size() != coldRes.Invariant.Size() {
			die(fmt.Errorf("%s -> %s: warm invariant size %d != cold %d",
				p.donor.Name, p.recipient.Name, warmRes.Invariant.Size(), coldRes.Invariant.Size()))
		}
		hits := warmRes.Stats.CacheVerdictHits + warmRes.Stats.CacheAbductHits
		frac := 0.0
		if warmRes.Stats.Queries > 0 {
			frac = float64(hits) / float64(warmRes.Stats.Queries)
		}
		fmt.Printf("%-28s %9.2f %9.2f %8d %8d %10d %10d %9.2f\n",
			p.donor.Name+" -> "+p.recipient.Name,
			coldWall.Seconds(), warmWall.Seconds(), warmRes.Invariant.Size(),
			warmRes.Stats.Queries, hits, warmRes.Stats.CacheDiskHits, frac)
	}
}
