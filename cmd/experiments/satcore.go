package main

import (
	"fmt"
	"time"

	hh "hhoudini"
)

// satcore prints the SAT-core ablation table (-satcore): the smallest OoO
// design verified with four workers in the weak-example regime (so
// abduction queries conflict enough to have lemmas worth exchanging), once
// with the mid-run clause exchange off and once with it on, compared on
// wall time and total CDCL conflicts across all workers.
func satcore() {
	header("SAT core: mid-run clause sharing on vs. off")
	t, err := hh.NewOoO(hh.OoOVariants()[0])
	if err != nil {
		die(err)
	}
	fmt.Printf("%-10s %10s %12s %10s %10s\n", "sharing", "wall", "conflicts", "exported", "imported")
	for _, share := range []bool{false, true} {
		opts := defaultOpts()
		opts.Learner.Cache = hh.NewVerifyCache() // each arm solves for itself
		opts.Learner.Workers = 4
		opts.Learner.ShareClauses = share // ablation arm overrides -deterministic
		opts.Examples.RunsPerInstr = 1
		opts.Examples.CompositionRuns = 0
		a, err := hh.NewAnalysis(t, opts)
		if err != nil {
			die(err)
		}
		start := time.Now()
		res, err := a.VerifyCtx(runCtx, safeSetFor(t))
		if err != nil {
			die(err)
		}
		if res.Invariant == nil {
			die(fmt.Errorf("%s: verification failed: %s", t.Name, res.Reason))
		}
		fmt.Printf("%-10t %10s %12d %10d %10d\n",
			share, time.Since(start).Round(time.Millisecond),
			res.Stats.SolverConflicts, res.Stats.ShareExported, res.Stats.ShareImported)
	}
}
