package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hhoudini/internal/veloct"
)

// --- (a) determinism ---------------------------------------------------------

type coldFacts struct {
	counts    string // queries/conflicts/encoded clauses per operation
	invariant string // sorted predicate IDs per operation
}

func coldRun(t *testing.T, seed int64) coldFacts {
	t.Helper()
	var f coldFacts
	for _, spec := range []opSpec{
		{kind: kindSynthesize, design: "inorder"},
		{kind: kindSynthesize, design: "small"},
	} {
		res := runOp(spec, opEnv{seed: seed, workers: 1})
		if res.err != nil {
			t.Fatalf("seed %d %s: %v", seed, spec.label(), res.err)
		}
		f.counts += fmt.Sprintf("%d/%d/%d ", res.learn.queries, res.learn.conflicts, res.learn.encodedClauses)
		var ids []string
		for _, p := range res.audit.res.Invariant.Preds {
			ids = append(ids, p.ID())
		}
		sort.Strings(ids)
		f.invariant += strings.Join(ids, ",") + ";"
	}
	return f
}

// exampleDigest hashes the example set InOrder's safe set generates under a
// seed.
func exampleDigest(t *testing.T, seed int64) uint64 {
	t.Helper()
	tgt, err := buildDesign("inorder")
	if err != nil {
		t.Fatal(err)
	}
	a, err := veloct.New(tgt, opEnv{seed: seed, workers: 1}.options())
	if err != nil {
		t.Fatal(err)
	}
	_, examples, err := a.BuildMiner(safeSet("inorder"))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, snap := range examples {
		fmt.Fprint(h, snap)
	}
	return h.Sum64()
}

// With one worker the work of a cold operation is a function of its inputs:
// counts and invariants repeat exactly, which is what lets a later change
// be claimed on a count. The seed changes the examples, never the verdict.
func TestColdOperationsAreDeterministic(t *testing.T) {
	facts := make([]coldFacts, 3)
	t.Run("runs", func(t *testing.T) {
		for i, seed := range []int64{1, 1, 2} {
			t.Run(fmt.Sprintf("seed%d-%d", seed, i), func(t *testing.T) {
				t.Parallel()
				facts[i] = coldRun(t, seed) // checks every verdict against expected.go
			})
		}
	})
	if facts[0] != facts[1] {
		t.Errorf("two runs with seed 1 differ:\n%+v\n%+v", facts[0], facts[1])
	}
	if exampleDigest(t, 1) == exampleDigest(t, 2) {
		t.Error("seeds 1 and 2 generated the same example set")
	}
}

// A proposal containing the family's mustFail instruction answers None
// whether simulation witnesses the leak (seed 1) or the learner has to
// refute the set (seed 2), plain and traced alike.
func TestMustFailProposalsAnswerNone(t *testing.T) {
	spec := opSpec{kind: kindVerify, design: "inorder", unsafe: true}
	for _, seed := range []int64{1, 2} {
		for _, tr := range []*tracer{nil, {}} {
			if res := runOp(spec, opEnv{seed: seed, workers: 1, tr: tr}); res.err != nil || res.audit != nil {
				t.Errorf("seed %d traced=%v: err %v, invariant %v", seed, tr != nil, res.err, res.audit != nil)
			}
		}
	}
	if err := checkVerdict("inorder", true, false); err == nil {
		t.Error("a proved unsafe proposal must be a failed operation")
	}
	if err := checkSynthesis("small", safeSet("inorder"), table2["inorder"].unsafe); err == nil {
		t.Error("InOrder's partition must not pass for an OoO design")
	}
}

// --- (b) statistics and span arithmetic --------------------------------------

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestOrderStatistics(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if m := median(xs); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", m)
	}
	// statistics.quantiles([1,3,5,7,9], n=4) == [2.0, 5.0, 8.0]
	if q1, q3 := quartiles(xs); !near(q1, 2) || !near(q3, 8) {
		t.Errorf("quartiles = %v %v, want 2 8", q1, q3)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v, want 2.75 8.25", q1, q3)
	}
	if s := spread(ten); !near(s, 1) {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
	if q := quantile(ten, 0.95); !near(q, 9.55) {
		t.Errorf("p95 of 1..10 = %v, want 9.55", q)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one sample = %v %v", q1, q3)
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 10, Parent: -1},
		{Name: "a.x", Start: 1, End: 4, Parent: 0},
		{Name: "a.y", Start: 3, End: 6, Parent: 0},  // overlaps a.x: [1,6] is covered once
		{Name: "b.z", Start: 8, End: 12, Parent: 0}, // sticks out of its parent: clipped to [8,10]
		{Name: "c.w", Start: 2, End: 3, Parent: 1},  // grandchild: only a.x pays for it
	}
	want := []float64{10 - 5 - 2, 3 - 1, 3, 4, 1}
	for i, got := range selfTimes(spans) {
		if !near(got, want[i]) {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
	if c := coverage(spans); !near(c, 0.7) {
		t.Errorf("coverage = %v, want 0.7", c)
	}
	layers := layerSelfTimes(spans, func(span) bool { return true })
	if !near(layers["a"], 5) || !near(layers["b"], 4) || !near(layers["bench"], 3) {
		t.Errorf("layer self times = %v", layers)
	}
	// The least covered operation decides.
	spans = append(spans, span{Name: "op", Start: 20, End: 30, Parent: -1},
		span{Name: "a.x", Start: 20, End: 21, Parent: 5})
	if c := coverage(spans); !near(c, 0.1) {
		t.Errorf("coverage with a poorly covered operation = %v, want 0.1", c)
	}
}

// --- (c) the manifest and what a run emits -----------------------------------

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestManifestMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) > 4 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads / %d end-to-end / %d per-layer metrics exceed 4 / 16 / 128",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", m.RunSeconds, runSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the code", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q, code has %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the code", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		check(e.Name)
		if (metricDef{e.Name, e.Unit, e.Better}) != endToEnd[i] || e.Bound != bounds[e.Name] {
			t.Errorf("end-to-end metric %d: manifest has %+v, code has %+v bound %v", i, e, endToEnd[i], bounds[e.Name])
		}
		if e.Bound <= 0 || e.Bound > 0.25 || !unit.MatchString(e.Unit) {
			t.Errorf("end-to-end metric %s: bound %v or unit %q out of range", e.Name, e.Bound, e.Unit)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the code", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		check(e.Name)
		if (metricDef{e.Name, e.Unit, e.Better}) != perLayer[i] {
			t.Errorf("per-layer metric %d: manifest has %+v, code has %+v", i, e, perLayer[i])
		}
		if !unit.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q or direction %q not allowed", e.Name, e.Unit, e.Better)
		}
	}
}

// miniWorkloads have the shapes of the real workloads on designs that
// answer in milliseconds, so every workload type goes through the whole
// harness — priming, store copies, two workers, the HTTP submit/poll loop,
// rounds, tracing, probes, replay, audit, drain, the result line — inside
// the test budget. The four real workloads take ~25 s each and are run by
// the benchmark driver, and by hand with -rounds 1; every name they emit
// comes from the same tables and the same emitter as here.
var miniWorkloads = []struct {
	def   workloadDef
	ops   int      // operations in a round
	store bool     // exercises proofdb
	serve bool     // exercises serve
	zero  []string // per-layer metrics that must read exactly 0
	live  []string // per-layer metrics that must be positive
}{
	{
		def: workloadDef{name: "mini-warm-restart", new: func() workload {
			return &cliWorkload{
				nworkers: 1,
				ops: []opSpec{
					{kind: kindVerify, design: "inorder"},
					{kind: kindSynthesize, design: "execstage"},
				},
				snapshotPrime: []string{"inorder"},
				journalPrime:  []string{"execstage"},
			}
		}},
		ops: 2, store: true,
		zero: []string{"sat.conflicts", "proofdb.corrupt_skipped"},
		live: []string{"proofdb.open_s", "proofdb.close_s", "proofdb.records_loaded", "proofdb.journal_replayed",
			"proofdb.append_us", "hhoudini.disk_hit_ratio", "hhoudini.self_s"},
	},
	{
		def: workloadDef{name: "mini-cold-par", new: func() workload {
			return &cliWorkload{nworkers: 2, ops: []opSpec{
				{kind: kindSynthesize, design: "execstage"},
				{kind: kindVerify, design: "inorder"},
				{kind: kindVerify, design: "inorder", unsafe: true},
			}}
		}},
		ops:  3,
		zero: []string{"hhoudini.self_s", "hhoudini.disk_hit_ratio"},
		live: []string{"sat.conflicts", "hhoudini.encoded_clauses", "hhoudini.par_efficiency", "veloct.simunsafe_s"},
	},
	{
		def: workloadDef{name: "mini-serve-mix", new: func() workload {
			return &serveWorkload{jobs: []opSpec{
				{kind: kindSynthesize, design: "execstage"},
				{kind: kindVerify, design: "inorder", unsafe: true},
				{kind: kindVerify, design: "inorder"}, // the cold job
			}}
		}},
		ops: 3 * serveClients, store: true, serve: true,
		zero: []string{"serve.rejected_429", "serve.jobs_failed", "design.build_s"},
		live: []string{"serve.job_s.p95", "serve.run_s.p50", "serve.submit_rtt_us", "proofdb.journal_appends",
			"proofdb.flush_s", "veloct.verdict_s.inorder"},
	},
}

func TestRunEmitsEveryMetric(t *testing.T) {
	for _, mini := range miniWorkloads {
		workloads = append(workloads, mini.def)
	}
	defer func() { workloads = workloads[:len(workloads)-len(miniWorkloads)] }()

	for _, mini := range miniWorkloads {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("%s traced=%v", mini.def.name, traced)
			scratch := t.TempDir()
			cfg := config{workload: mini.def.name, seed: 2, rounds: 1, trace: traced, scratch: scratch, probeDesign: "execstage"}
			rd, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var out bytes.Buffer
			res := report(&out, rd)
			if !res.ok() {
				t.Fatalf("%s: run failed:\n%s", name, out.String())
			}
			want := 2 * mini.ops // warm-up + 1 round
			if mini.serve {
				want++ // the in-process replay of the one positive proposal
			}
			if res.Attempted != want {
				t.Errorf("%s: %d operations attempted, want %d", name, res.Attempted, want)
			}
			if left, _ := os.ReadDir(scratch); len(left) != 0 {
				t.Errorf("%s: scratch directory not emptied: %v", name, left)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics emitted, want %d", name, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := res.Metrics[def.name]
				if !ok || m.Unit != def.unit {
					t.Errorf("%s: metric %s missing or with unit %q", name, def.name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, def.name, m.Value)
				}
			}
			if !traced {
				continue
			}
			// Which workload reports which layer: proofdb.* only with a store,
			// serve.* only through the server; the rest read n/a, and 0 in the
			// result line.
			for name, s := range perLayerMetrics(rd) {
				wantNA := strings.HasPrefix(name, "proofdb.") && !mini.store ||
					strings.HasPrefix(name, "serve.") && !mini.serve
				if s.na != wantNA || s.na && res.Metrics[name].Value != 0 {
					t.Errorf("%s: %s n/a = %v (value %v), want n/a = %v", mini.def.name, name, s.na, res.Metrics[name].Value, wantNA)
				}
			}
			// The layer predictions hold on the miniatures too.
			for _, name := range mini.zero {
				if got := res.Metrics[name].Value; got != 0 {
					t.Errorf("%s: %s = %v, want 0", mini.def.name, name, got)
				}
			}
			for _, name := range append(mini.live, "veloct.examples_s", "circuit.encode_clauses", "hhoudini.audit_s") {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", mini.def.name, name, res.Metrics[name].Value)
				}
			}
			if mini.store && res.Metrics["hhoudini.memo_hit_ratio"].Value != 1 && !mini.serve {
				t.Errorf("%s: hhoudini.memo_hit_ratio = %v, want 1 on a disk-warm run", mini.def.name, res.Metrics["hhoudini.memo_hit_ratio"].Value)
			}
			if c := res.Metrics["trace.coverage"].Value; c < minCoverage {
				t.Errorf("%s: trace.coverage = %v, want >= %v", mini.def.name, c, minCoverage)
			}
		}
	}
}

// A layer that a workload exercises and that reports nothing makes the run
// incorrect: 0 must not pass for "not exercised".
func TestSilentLayerIsAProblem(t *testing.T) {
	rd := &runData{cfg: config{workload: "warm-restart", trace: true}, workers: 1, storeDir: "somewhere",
		rounds: []roundData{{}}}
	var out bytes.Buffer
	if res := report(&out, rd); res.Correct || !strings.Contains(out.String(), "PROBLEM layer proofdb.*") {
		t.Errorf("a store that reports no bytes on disk passed:\n%s", out.String())
	}
}
