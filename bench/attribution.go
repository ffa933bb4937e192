package main

// -attribution: the table the ROADMAP calls the first deliverable of the
// benchmark — where a cold, a disk-warm and an in-memory-warm SmallOoO and
// MegaOoO verification spend their time, by span. It is not one of the
// timed workloads (a cold MegaOoO verification alone is ~7 s); README.md
// carries its output.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	core "hhoudini/internal/hhoudini"
)

func attribution(w io.Writer, cfg config) error {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(cfg.scratch, "attribution-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	const reps = 3 // every cell is the median of this many verifications
	designs := []string{"small", "mega"}
	modes := []string{"cold", "disk-warm", "mem-warm"}
	tr := &tracer{}
	type column struct{ design, mode string }
	results := make(map[column][]opResult)
	rounds := make(map[int]column) // the tracer's round → the column it belongs to
	for _, d := range designs {
		spec := opSpec{kind: kindVerify, design: d}
		env := opEnv{seed: cfg.seed, workers: 1}
		// disk-warm: veloct -persist re-run after a clean first run.
		disk := env
		disk.cacheDir = filepath.Join(scratch, d)
		if res := runOp(spec, disk); res.err != nil {
			return res.err
		}
		// mem-warm: a later verification on the analysis and cache of an
		// earlier one, as a synthesis loop or a veloctd job finds them.
		mem := env
		mem.cache = core.NewVerifyCache()
		first := runOp(spec, mem)
		if first.err != nil {
			return first.err
		}
		mem.shared = first.audit.a
		// cold: a fresh cache and no store, as veloct without -persist.
		for _, m := range []struct {
			mode string
			env  opEnv
		}{{"cold", env}, {"disk-warm", disk}, {"mem-warm", mem}} {
			col := column{d, m.mode}
			for rep := 0; rep < reps; rep++ {
				e := m.env
				e.tr, e.round = tr, len(rounds)
				rounds[e.round] = col
				res := runOp(spec, e)
				if res.err != nil {
					return res.err
				}
				results[col] = append(results[col], res)
				settle()
			}
		}
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	perRound := make(map[string]map[int]float64) // span name → round → self seconds
	for i, s := range spans {
		name := s.Name
		if name == "op" {
			name = "(uncovered)"
		}
		if perRound[name] == nil {
			perRound[name] = make(map[int]float64)
		}
		perRound[name][s.Round] += self[i]
	}
	names := make([]string, 0, len(perRound))
	for name := range perRound {
		names = append(names, name)
	}
	sort.Strings(names)
	spanCell := func(name string, col column) float64 {
		var xs []float64
		for round, c := range rounds {
			if c == col {
				xs = append(xs, perRound[name][round])
			}
		}
		return median(xs)
	}
	statCell := func(col column, stat func(opResult) float64) float64 {
		var xs []float64
		for _, res := range results[col] {
			xs = append(xs, stat(res))
		}
		return median(xs)
	}

	fmt.Fprintf(w, "host %s\nself time by span of one verification, median of %d, seed %d (s)\n\n%-22s", host(), reps, cfg.seed, "span")
	for _, d := range designs {
		for _, m := range modes {
			fmt.Fprintf(w, " %15s", d+" "+m)
		}
	}
	fmt.Fprintln(w)
	row := func(label string, cell func(column) float64) {
		fmt.Fprintf(w, "%-22s", label)
		for _, d := range designs {
			for _, m := range modes {
				fmt.Fprintf(w, " %15.4f", cell(column{d, m}))
			}
		}
		fmt.Fprintln(w)
	}
	for _, name := range names {
		row(name, func(c column) float64 { return spanCell(name, c) })
	}
	stat := func(label string, f func(opResult) float64) {
		row(label, func(c column) float64 { return statCell(c, f) })
	}
	stat("= wall", func(res opResult) float64 { return res.wall })
	fmt.Fprintln(w, "\ninside hhoudini.learn's self time, from the learner's own Stats:")
	stat("hhoudini.query_s", func(res opResult) float64 { return res.learn.queryS })
	stat("queries", func(res opResult) float64 { return float64(res.learn.queries) })
	stat("sat conflicts", func(res opResult) float64 { return float64(res.learn.conflicts) })
	stat("memo hits", func(res opResult) float64 { return float64(res.learn.verdictHits + res.learn.abductHits) })
	stat("records loaded", func(res opResult) float64 { return recordsLoaded(res.store) })
	return nil
}
