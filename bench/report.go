package main

// Reports: the table a person reads, and the one JSON line the benchmark
// driver reads.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// jsonMetric and result are the driver's result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// ok reports whether the run counts as a pass.
func (r result) ok() bool { return r.Correct && r.Failed == 0 }

// report prints the run for a reader and returns the driver's result: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func report(w io.Writer, rd *runData) result {
	defs, values := endToEnd, endToEndMetrics(rd)
	problems := append([]string(nil), rd.problems...)
	if rd.cfg.trace {
		defs, values = perLayer, perLayerMetrics(rd)
		for prefix, canaries := range conditionalLayers {
			silent := exercised(prefix, rd)
			for _, c := range canaries {
				silent = silent && values[c].value == 0
			}
			if silent {
				problems = append(problems, fmt.Sprintf("layer %s* is exercised by %s and reports nothing (%s all 0)",
					prefix, rd.cfg.workload, strings.Join(canaries, ", ")))
			}
		}
	}
	res := result{Correct: len(problems) == 0, Metrics: make(map[string]jsonMetric, len(defs))}

	fmt.Fprintf(w, "workload %s  seed %d  trace %v  timed rounds %d  workers %d\n",
		rd.cfg.workload, rd.cfg.seed, rd.cfg.trace, len(rd.rounds), rd.workers)
	fmt.Fprintf(w, "host %s\n", host())
	for _, op := range rd.ops() {
		res.Attempted++
		if op.err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(w, "FAILED %s: %v\n", op.spec.label(), op.err)
		}
	}
	for _, p := range problems {
		fmt.Fprintf(w, "PROBLEM %s\n", p)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	printCounts(w, rd)

	fmt.Fprintf(w, "\n%-32s %-6s %14s %5s %14s %14s\n", "metric", "unit", "value", "n", "p25", "p75")
	for _, def := range defs {
		s := values[def.name]
		res.Metrics[def.name] = jsonMetric{Value: s.value, Unit: def.unit}
		switch {
		case s.na:
			fmt.Fprintf(w, "%-32s %-6s %14s\n", def.name, def.unit, "n/a")
		case len(s.obs) > 0:
			q1, q3 := quartiles(s.obs)
			fmt.Fprintf(w, "%-32s %-6s %14.6g %5d %14.6g %14.6g\n", def.name, def.unit, s.value, len(s.obs), q1, q3)
		default:
			fmt.Fprintf(w, "%-32s %-6s %14.6g\n", def.name, def.unit, s.value)
		}
	}
	if rd.cfg.trace {
		fmt.Fprintln(w)
		printLayers(w, rd)
		printSelfTimes(w, rd.spans)
	}
	return res
}

// printLayers prints which package owned the time: self time by layer, per
// traced round, and for serve-mix also of the in-process replay.
func printLayers(w io.Writer, rd *runData) {
	traced := 0
	for _, r := range rd.rounds {
		if r.traced {
			traced++
		}
	}
	line := func(title string, per float64, keep func(span) bool) {
		layers := layerSelfTimes(rd.spans, keep)
		names := make([]string, 0, len(layers))
		for l := range layers {
			names = append(names, l)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "self time by layer, %s (s):", title)
		for _, l := range names {
			fmt.Fprintf(w, "  %s %.4f", l, layers[l]/per)
		}
		fmt.Fprintln(w)
	}
	if traced > 0 {
		line("mean per traced round", float64(traced), func(s span) bool { return s.Round >= 0 })
	}
	if len(rd.replay) > 0 {
		line("in-process replay", 1, func(s span) bool { return s.Round == replayRound })
	}
}

// printCounts prints the learner counts and the wall of every timed round.
// With one worker the counts repeat exactly, which is what lets a later
// change be claimed on a count.
func printCounts(w io.Writer, rd *runData) {
	var rows, walls []string
	for _, r := range rd.rounds {
		walls = append(walls, fmt.Sprintf("%.3f", r.wall))
		var q, c, e int64
		for _, op := range r.ops {
			q += op.learn.queries
			c += op.learn.conflicts
			e += op.learn.encodedClauses
		}
		rows = append(rows, fmt.Sprintf("%d/%d/%d", q, c, e))
	}
	same := true
	for _, r := range rows {
		same = same && r == rows[0]
	}
	fmt.Fprintf(w, "queries/conflicts/encoded clauses per round: %s (identical: %v)\n", strings.Join(rows, " "), same)
	fmt.Fprintf(w, "round walls (s): %s\n", strings.Join(walls, " "))
}

// printSelfTimes prints where each kind of operation spent its time: the
// median, over the traced rounds, of every span name's self time.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type key struct{ op, name string }
	type instance struct {
		op    string
		round int
	}
	perRound := make(map[key]map[int]float64)
	walls := make(map[string]map[int]float64)
	roots := make(map[instance]float64) // serve-mix runs an operation once per client per round
	spans = append([]span(nil), spans...)
	for i := range spans {
		if spans[i].Round == replayRound {
			spans[i].Op = "replay:" + spans[i].Op
		}
	}
	for _, s := range spans {
		if s.Parent < 0 {
			roots[instance{s.Op, s.Round}]++
		}
	}
	for i, s := range spans {
		n := roots[instance{s.Op, s.Round}]
		k := key{s.Op, s.Name}
		if perRound[k] == nil {
			perRound[k] = make(map[int]float64)
		}
		perRound[k][s.Round] += self[i] / n
		if s.Parent < 0 {
			if walls[s.Op] == nil {
				walls[s.Op] = make(map[int]float64)
			}
			walls[s.Op][s.Round] += s.dur() / n
		}
	}
	medianOver := func(byRound map[int]float64) float64 {
		var xs []float64
		for _, v := range byRound {
			xs = append(xs, v)
		}
		return median(xs)
	}
	ops := make([]string, 0, len(walls))
	for op := range walls {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(w, "self time by span, median over traced rounds (s):\n")
	for _, op := range ops {
		fmt.Fprintf(w, "  %-28s wall %.4f\n", op, medianOver(walls[op]))
		var names []string
		for k := range perRound {
			if k.op == op {
				names = append(names, k.name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			label := name
			if name == "op" {
				label = "(uncovered)"
			}
			fmt.Fprintf(w, "    %-26s %.4f\n", label, medianOver(perRound[key{op, name}]))
		}
	}
}

// writeSpans writes the spans of a traced run as a JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
