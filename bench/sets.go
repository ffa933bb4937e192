package main

// -all and -aa: every workload in a child process of its own (so peak
// memory is per workload), one or several full sets, and the A/A verdict —
// the medians of two sets of runs of the same code must agree within half
// of each metric's regression bound, or the benchmark cannot tell a
// regression of that size from noise.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// metricDoc is one workload×metric cell of the -aa document.
type metricDoc struct {
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
	// Runs holds every run's value, one row per set.
	Runs [][]float64 `json:"runs"`
	// SetMedians is each set's median over its runs; Median is the median of
	// all runs.
	SetMedians []float64 `json:"set_medians"`
	Median     float64   `json:"median"`
	// Gap is the largest relative distance between two set medians,
	// (max−min)/min: what an A/A comparison of identical code reports as a
	// difference.
	Gap float64 `json:"gap"`
	// Spread is the interquartile distance of all runs over their median, as
	// the benchmark driver computes it over ten runs.
	Spread float64 `json:"spread"`
}

type workloadDoc struct {
	Attempted int                   `json:"ops_attempted"`
	Failed    int                   `json:"ops_failed"`
	EndToEnd  map[string]*metricDoc `json:"end_to_end"`
	PerLayer  map[string]jsonMetric `json:"per_layer,omitempty"` // from one traced run
}

// runsPerSet is how many runs of each workload make one set of -aa.
const runsPerSet = 3

// setsDoc is what -aa prints; bench/BASELINE.json is one of these.
type setsDoc struct {
	Host       hostInfo                `json:"host"`
	Claim      *string                 `json:"claim"` // null: a baseline claims no gain
	Sets       int                     `json:"sets"`
	RunsPerSet int                     `json:"runs_per_set"`
	Seconds    float64                 `json:"seconds"`
	FirstSeed  int64                   `json:"first_seed"` // run j of every set uses seed first_seed+j
	Workloads  map[string]*workloadDoc `json:"workloads"`
}

// runChild runs one workload once in a child process and parses the result
// line. The child's report goes to progress.
func runChild(exe string, cfg config, progress io.Writer) (result, error) {
	args := []string{
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-rounds", strconv.Itoa(cfg.rounds),
		"-trace", "0",
	}
	if cfg.trace {
		args[len(args)-1] = "1"
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = progress
	runErr := cmd.Run() // also waits for the child to exit
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", cfg.workload, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", cfg.workload, err)
	}
	if !res.ok() {
		progress.Write(out.Bytes()) //nolint:errcheck // diagnostics only
	}
	return res, nil
}

// runSets runs sets × runs runs of every workload. The sets are
// interleaved — run j of every set is made before run j+1 of any — so that
// the minutes-long speed drift of a shared host falls on all sets alike, as
// alternating sides does when two commits are compared. With docOut
// (-aa) it also makes one traced run per workload, writes the document
// there and fails when two set medians disagree by more than half a bound.
func runSets(sets, runs int, cfg config, docOut, stdout, stderr io.Writer) int {
	gate := docOut != nil
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	doc := setsDoc{Host: host(), Sets: sets, RunsPerSet: runs, Seconds: cfg.seconds, FirstSeed: cfg.seed,
		Workloads: make(map[string]*workloadDoc)}
	fmt.Fprintf(stdout, "host %s\n", doc.Host)
	pass := true
	for _, w := range workloads {
		wd := &workloadDoc{EndToEnd: make(map[string]*metricDoc)}
		doc.Workloads[w.name] = wd
		for _, def := range endToEnd {
			wd.EndToEnd[def.name] = &metricDoc{Unit: def.unit, Bound: bounds[def.name], Runs: make([][]float64, sets)}
		}
	}
	for run := 0; run < runs; run++ {
		for set := 0; set < sets; set++ {
			for _, w := range workloads {
				child := cfg
				child.workload, child.seed, child.trace = w.name, cfg.seed+int64(run), false
				res, err := runChild(exe, child, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				wd := doc.Workloads[w.name]
				wd.Attempted += res.Attempted
				wd.Failed += res.Failed
				pass = pass && res.ok()
				fmt.Fprintf(stdout, "set %d run %d %-13s", set+1, run+1, w.name)
				for _, def := range endToEnd {
					v := res.Metrics[def.name].Value
					md := wd.EndToEnd[def.name]
					md.Runs[set] = append(md.Runs[set], v)
					fmt.Fprintf(stdout, "  %s=%.4g%s", def.name, v, def.unit)
				}
				fmt.Fprintf(stdout, "  ops %d/%d ok\n", res.Attempted-res.Failed, res.Attempted)
			}
		}
	}
	if gate {
		for _, w := range workloads {
			child := cfg
			child.workload, child.trace = w.name, true
			res, err := runChild(exe, child, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			pass = pass && res.ok()
			doc.Workloads[w.name].PerLayer = res.Metrics
		}
	}

	fmt.Fprintf(stdout, "\n%-13s %-16s %12s %9s %9s %7s\n", "workload", "metric", "median", "gap", "spread", "bound")
	for _, w := range workloads {
		for _, def := range endToEnd {
			md := doc.Workloads[w.name].EndToEnd[def.name]
			var all []float64
			for _, r := range md.Runs {
				md.SetMedians = append(md.SetMedians, median(r))
				all = append(all, r...)
			}
			md.Median = median(all)
			md.Spread = spread(all)
			lo, hi := md.SetMedians[0], md.SetMedians[0]
			for _, v := range md.SetMedians {
				lo, hi = min(lo, v), max(hi, v)
			}
			if lo > 0 {
				md.Gap = (hi - lo) / lo
			}
			verdict := ""
			if gate && md.Gap > md.Bound/2 {
				verdict = "  DISAGREE (gap above half the bound)"
				pass = false
			}
			fmt.Fprintf(stdout, "%-13s %-16s %12.5g %8.2f%% %8.2f%% %6.0f%%%s\n",
				w.name, def.name, md.Median, 100*md.Gap, 100*md.Spread, 100*md.Bound, verdict)
		}
	}
	if docOut != nil {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			_, err = docOut.Write(append(data, '\n'))
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !pass {
		return 1
	}
	return 0
}
