// Command veloct runs the VeloCT analysis on a built-in design (or reports
// on a btor2 file): it verifies a proposed safe instruction set or
// synthesizes one from scratch, printing the learned invariant and the
// instrumentation the paper reports.
//
// Examples:
//
//	veloct -design inorder -synthesize
//	veloct -design mega -safe add,sub,xor,mul -workers 8
//	veloct -design execstage -safe add -show-invariant
//	veloct -btor2 model.btor
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

var (
	flagDesign     = flag.String("design", "inorder", "design: execstage|inorder|small|medium|large|mega")
	flagBtor2      = flag.String("btor2", "", "instead of a built-in design, parse a btor2 file and print its statistics")
	flagSafe       = flag.String("safe", "", "comma-separated proposed safe set (empty: synthesize)")
	flagSynthesize = flag.Bool("synthesize", false, "synthesize the safe set instead of verifying one")
	flagWorkers    = flag.Int("workers", 1, "parallel learner workers (0 = GOMAXPROCS)")
	flagCacheDir   = flag.String("cache-dir", "", "persist the verification cache (proven abducts and Sat candidate sets) in this directory across process runs")
	flagPersist    = flag.Bool("persist", false, "shorthand for -cache-dir "+hh.DefaultCacheDir)
	flagVerbose    = flag.Bool("v", false, "verbose instrumentation (cache counter report)")
	flagShowInv    = flag.Bool("show-invariant", false, "print every predicate of the learned invariant")
	flagAudit      = flag.Bool("audit", true, "monolithically re-verify the learned invariant")
	flagSeed       = flag.Int64("seed", 1, "example-generation seed")
	flagCert       = flag.String("cert", "", "write a btor2 certificate of the learned invariant to this file")
	flagVCD        = flag.String("vcd", "", "with -btor2: write the first counterexample trace as a VCD waveform to this file")
	flagTimeout    = flag.Duration("timeout", 0, "overall deadline for the analysis (0 = none); on expiry the in-flight learning run is cancelled")
	flagCPUProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	flagMemProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

// startProfiles begins CPU profiling when -cpuprofile is set. stopProfiles
// — called on every exit path alongside shutdown() — stops it and writes
// the -memprofile heap snapshot.
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
			fmt.Fprintln(os.Stderr, "veloct: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "veloct: memprofile:", err)
		}
	}
})

// shutdown flushes and closes the persistent proof stores exactly once.
// Every exit path — normal return, die(), the verify None path and the
// signal handler's cancellation — funnels through it, so a SIGINT no
// longer skips the final proof-store flush.
var shutdown = sync.OnceFunc(func() {
	if *flagCacheDir != "" {
		if err := hh.CloseProofDBs(); err != nil {
			fmt.Fprintln(os.Stderr, "veloct: proof store close:", err)
		}
	}
})

// analysisContext derives the run's context: the -timeout deadline plus a
// SIGINT/SIGTERM handler. The first signal cancels the context — the
// in-flight LearnCtx interrupts its solvers, drains, and flushes the proof
// store — and re-enables default signal disposition, so a second signal
// force-exits the process.
func analysisContext() (context.Context, context.CancelFunc) {
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if *flagTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *flagTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "veloct: %v: cancelling (a second signal force-exits)\n", sig)
		signal.Stop(sigc) // second signal takes the default (terminating) action
		cancel()
	}()
	return ctx, cancel
}

func main() {
	flag.Parse()
	startProfiles()
	defer stopProfiles()
	if *flagBtor2 != "" {
		reportBtor2(*flagBtor2)
		return
	}
	tgt := buildDesign(*flagDesign)
	opts := hh.DefaultAnalysisOptions()
	opts.Learner.Workers = *flagWorkers
	if *flagPersist && *flagCacheDir == "" {
		*flagCacheDir = hh.DefaultCacheDir
	}
	if *flagCacheDir != "" {
		// Every Learn flushes the store at shutdown; shutdown() is the
		// final durability point on every exit path (including signals).
		opts.Learner.CacheDir = *flagCacheDir
		defer shutdown()
	}
	opts.Examples.Seed = *flagSeed
	analysis, err := hh.NewAnalysis(tgt, opts)
	if err != nil {
		die(err)
	}

	ctx, cancel := analysisContext()
	defer cancel()

	fmt.Printf("design %s: %d state bits, %d inputs bits, %d AIG nodes\n",
		tgt.Name, tgt.Circuit.NumStateBits(), tgt.Circuit.NumInputBits(), tgt.Circuit.NumNodes())

	if *flagSynthesize || *flagSafe == "" {
		synthesize(ctx, analysis)
		return
	}
	verify(ctx, analysis, strings.Split(*flagSafe, ","))
}

// reportCacheCounters gates the cache counter block: scripted runs keep
// clean output unless the user asked for verbosity or touched a cache flag.
func reportCacheCounters() bool {
	if *flagVerbose {
		return true
	}
	set := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "cache-dir", "persist":
			set = true
		}
	})
	return set
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "veloct:", err)
	shutdown() // os.Exit skips defers; flush the proof stores explicitly
	stopProfiles()
	os.Exit(1)
}

func buildDesign(name string) *hh.Target {
	var (
		tgt *hh.Target
		err error
	)
	switch strings.ToLower(name) {
	case "execstage":
		tgt, err = hh.NewExecStage(hh.ExecStageConfig{})
	case "inorder", "rocket":
		tgt, err = hh.NewInOrder()
	case "small":
		tgt, err = hh.NewOoO(hh.SmallOoO)
	case "medium":
		tgt, err = hh.NewOoO(hh.MediumOoO)
	case "large":
		tgt, err = hh.NewOoO(hh.LargeOoO)
	case "mega":
		tgt, err = hh.NewOoO(hh.MegaOoO)
	default:
		err = fmt.Errorf("unknown design %q", name)
	}
	if err != nil {
		die(err)
	}
	return tgt
}

func verify(ctx context.Context, a *hh.Analysis, safe []string) {
	for i := range safe {
		safe[i] = strings.TrimSpace(safe[i])
	}
	fmt.Printf("verifying safe set: %s\n", strings.Join(safe, ", "))
	start := time.Now()
	res, err := a.VerifyCtx(ctx, safe)
	if err != nil {
		die(err)
	}
	elapsed := time.Since(start)
	if res.Invariant == nil {
		fmt.Printf("RESULT: None (%s)\n", res.Reason)
		shutdown()
		stopProfiles()
		os.Exit(1)
	}
	report(a, res, elapsed)
}

func synthesize(ctx context.Context, a *hh.Analysis) {
	fmt.Println("synthesizing the safe instruction set...")
	start := time.Now()
	syn, err := a.SynthesizeCtx(ctx)
	if err != nil {
		die(err)
	}
	elapsed := time.Since(start)
	safe := append([]string(nil), syn.Safe...)
	sort.Strings(safe)
	fmt.Printf("safe set (%d): %s\n", len(safe), strings.Join(safe, ", "))
	fmt.Printf("unsafe (witnessed/unprovable): %s\n", strings.Join(syn.Unsafe, ", "))
	fmt.Printf("unsafe by category: %s\n", strings.Join(syn.UnsafeByCategory, ", "))
	if syn.Result != nil && syn.Result.Invariant != nil {
		report(a, syn.Result, elapsed)
	}
}

func report(a *hh.Analysis, res *hh.Result, elapsed time.Duration) {
	inv := res.Invariant
	fmt.Printf("RESULT: invariant with %d predicates (total %v)\n", inv.Size(), elapsed.Round(time.Millisecond))
	if res.Stats != nil {
		fmt.Printf("  tasks=%d queries=%d backtracks=%d examples=%d\n",
			res.Stats.Tasks, res.Stats.Queries, res.Stats.Backtracks, res.Examples)
		fmt.Printf("  solvers=%d encoded gates=%d clauses=%d\n",
			res.Stats.SolverAllocs, res.Stats.EncodedGates, res.Stats.EncodedClauses)
		if reportCacheCounters() {
			fmt.Printf("  cache: negative-hits=%d abduct-hits=%d entries=%d (~%dB)\n",
				res.Stats.CacheVerdictHits, res.Stats.CacheAbductHits,
				res.Stats.CacheEntries, res.Stats.CacheBytes)
			if *flagCacheDir != "" {
				fmt.Printf("  proofdb %s: disk-hits=%d loaded=%d flushes=%d\n",
					*flagCacheDir, res.Stats.CacheDiskHits,
					res.Stats.CacheDiskLoads, res.Stats.CacheDiskFlushes)
			}
			fmt.Printf("  %s\n", hh.SharedVerifyCache())
		}
		fmt.Printf("  median query %v, median task %v, p95 task %v\n",
			res.Stats.MedianQueryTime().Round(time.Microsecond),
			res.Stats.MedianTaskTime().Round(time.Microsecond),
			res.Stats.TaskTimePercentile(0.95).Round(time.Microsecond))
	}
	if *flagShowInv {
		for _, p := range inv.Preds {
			fmt.Printf("    %s\n", p)
		}
	}
	if *flagAudit {
		start := time.Now()
		if err := a.Audit(res); err != nil {
			die(fmt.Errorf("audit FAILED: %w", err))
		}
		fmt.Printf("  monolithic audit OK (%v)\n", time.Since(start).Round(time.Millisecond))
	}
	if *flagCert != "" {
		f, err := os.Create(*flagCert)
		if err != nil {
			die(err)
		}
		err = a.ExportCertificate(f, res)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			die(err)
		}
		if err := a.CheckCertificate(res); err != nil {
			die(fmt.Errorf("certificate self-check FAILED: %w", err))
		}
		fmt.Printf("  btor2 certificate written to %s (self-checked by 1-induction)\n", *flagCert)
	}
}

func reportBtor2(path string) {
	f, err := os.Open(path)
	if err != nil {
		die(err)
	}
	defer f.Close()
	d, err := hh.ParseBTOR2(f)
	if err != nil {
		die(err)
	}
	c := d.Circuit
	fmt.Printf("btor2 %s: %d state bits, %d input bits, %d AIG nodes\n",
		path, c.NumStateBits(), c.NumInputBits(), c.NumNodes())
	fmt.Printf("  bads: %v\n  constraints: %v\n  outputs: %v\n",
		d.Bads, d.Constraints, d.Outputs)
	// Bounded model checking of each bad property, then a k-induction
	// attempt for the unreached ones.
	const depth, k = 32, 8
	for _, b := range d.Bads {
		tr, err := hh.BMCUnder(c, b, depth, d.Constraints)
		if err != nil {
			die(err)
		}
		if tr != nil {
			if v, err := hh.ReplayTrace(c, tr, b); err != nil || v != 1 {
				die(fmt.Errorf("trace replay failed for %q: v=%d err=%v", b, v, err))
			}
			fmt.Printf("  bad %q REACHABLE in %d steps (trace replayed OK)\n", b, tr.Len())
			if *flagVCD != "" {
				if err := dumpTraceVCD(*flagVCD, c, tr); err != nil {
					die(err)
				}
				fmt.Printf("  waveform written to %s\n", *flagVCD)
				*flagVCD = "" // only the first counterexample
			}
			continue
		}
		proved, _, err := hh.KInductionUnder(c, b, k, d.Constraints)
		if err != nil {
			die(err)
		}
		if proved {
			fmt.Printf("  bad %q unreachable (proved by %d-induction)\n", b, k)
			continue
		}
		// Escalate to PDR when plain induction is inconclusive.
		res, err := hh.PDRUnder(c, b, 64, d.Constraints)
		switch {
		case err != nil:
			fmt.Printf("  bad %q unreached within %d steps (induction and PDR inconclusive: %v)\n", b, depth, err)
		case res.Proved:
			fmt.Printf("  bad %q unreachable (proved by PDR, %d frames, %d clauses)\n",
				b, res.Frames, len(res.Invariant))
		default:
			fmt.Printf("  bad %q REACHABLE in %d steps (found by PDR)\n", b, res.Cex.Len())
		}
	}
}

// dumpTraceVCD replays a counterexample on the simulator with a waveform
// recorder attached. The file's Close error is returned like any other.
func dumpTraceVCD(path string, c *hh.Circuit, tr *hh.MCTrace) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	sim := hh.NewSim(c)
	if err := sim.LoadSnapshot(tr.States[0]); err != nil {
		return err
	}
	rec, err := hh.NewVCDRecorder(f, sim, "cex")
	if err != nil {
		return err
	}
	for i := 0; i < tr.Len(); i++ {
		if err := sim.Step(tr.Inputs[i]); err != nil {
			return err
		}
		if err := rec.Sample(); err != nil {
			return err
		}
	}
	return rec.Close()
}
