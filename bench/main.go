// Command bench is the repository's benchmark: four workloads that time
// verdicts cold, parallel, disk-warm and through veloctd, check every
// verdict against a hand-written answer, and — in a separate traced run —
// say which package owned the time. See README.md in this directory.
//
//	bench -workload cold-seq -seed 1              one untraced run: end-to-end metrics
//	bench -workload cold-seq -seed 1 -trace 1     one traced run: per-layer metrics
//	bench -all                                    the four workloads, one child process each
//	bench -aa 5 > bench/BASELINE.json             five interleaved sets of three runs; fails if two set medians disagree
//	bench -attribution                            where a SmallOoO and a MegaOoO verdict spend their time
//
// The last line of a run's standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// processStart is read as early as a Go program can: setup_s counts from
// here.
var processStart = time.Now()

// runSeconds is the default time on the clock per run; BENCHMARK.json's
// run_seconds says the same.
const runSeconds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{scratch: scratchParent, probeDesign: "mega"}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: cold-seq|cold-par|warm-restart|serve-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: example generation of every operation, and the serve-mix job order")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "time to put on the clock (at least 5 rounds are always run)")
	fs.IntVar(&cfg.rounds, "rounds", 0, "run exactly this many timed rounds instead of -seconds")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	fs.StringVar(&cfg.spansOut, "spans", "", "with -trace 1: also write the spans to this file as JSON")
	all := fs.Bool("all", false, "run every workload once, each in its own process")
	aa := fs.Int("aa", 0, "run this many interleaved sets of runs, print the result document, and fail if two set medians of the same code disagree")
	attr := fs.Bool("attribution", false, "print where a cold, disk-warm and in-memory-warm SmallOoO and MegaOoO verdict spend their time")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0

	switch {
	case *attr:
		if err := attribution(stdout, cfg); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *aa > 0:
		// The document is the output; what a person follows goes to stderr.
		return runSets(*aa, runsPerSet, cfg, stdout, stderr, stderr)
	case *all:
		return runSets(1, 1, cfg, nil, stdout, stderr)
	case cfg.workload == "":
		fmt.Fprintln(stderr, "bench: one of -workload, -all, -aa or -attribution is required")
		fs.Usage()
		return 2
	}

	rd, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := report(stdout, rd)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.ok() {
		return 1
	}
	return 0
}
