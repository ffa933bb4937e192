package main

// Probes: single layers driven directly on fixed inputs, so a layer's speed
// is known apart from how much of it a workload happens to use. They run in
// the traced run only, after the clock has stopped.

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hhoudini/internal/circuit"
	"hhoudini/internal/miter"
	"hhoudini/internal/proofdb"
	"hhoudini/internal/sat"
)

// runProbes returns the probe metrics by name. storeDir is the workload's
// proof store ("" skips the proofdb probes); a probe that cannot run reports
// nothing and its metric reads 0.
func runProbes(probeDesign, storeDir, scratch string, seed int64) map[string]float64 {
	m := make(map[string]float64)
	circuitProbes(m, probeDesign, seed)
	satProbes(m)
	if storeDir != "" {
		proofdbProbes(m, storeDir, filepath.Join(scratch, "probe-store"))
	}
	return m
}

// medianOf times fn reps times and returns the median in seconds.
func medianOf(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		fn()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}

// circuitProbes measure the circuit package on one product — MegaOoO in a
// real run: the largest design, and cheap here because nothing is solved.
func circuitProbes(m map[string]float64, probeDesign string, seed int64) {
	const reps = 3
	tgt, err := buildDesign(probeDesign)
	if err != nil {
		return
	}
	var prod *miter.Product
	supports := make([]float64, reps)
	for i := range supports {
		// A fresh product has a cold support memo and a cold cone table.
		if prod, err = miter.Build(tgt.Circuit); err != nil {
			return
		}
		start := time.Now()
		prod.Circuit.WarmSupports()
		supports[i] = time.Since(start).Seconds()
	}
	m["circuit.supports_s"] = median(supports)

	// One pass is seconds long on MegaOoO, so it is measured once.
	c := prod.Circuit
	start := time.Now()
	for _, r := range c.Regs() {
		sup, _ := c.RegSupport(r.Name)
		c.ConeFingerprint(append(append([]string(nil), sup...), r.Name))
	}
	m["circuit.fingerprint_s"] = time.Since(start).Seconds()

	const steps = 2000
	rng := rand.New(rand.NewSource(seed))
	words := make([]uint64, steps)
	safe := safeSet(probeDesign)
	for i := range words {
		w, err := tgt.Encode(safe[rng.Intn(len(safe))], rng)
		if err != nil {
			return
		}
		words[i] = w
	}
	simS := medianOf(reps, func() {
		sim := circuit.NewSim(prod.Circuit)
		for _, w := range words {
			sim.Step(circuit.Inputs{tgt.InstrPort: w}) //nolint:errcheck // the port is the design's own
		}
	})
	m["circuit.sim_steps_per_s"] = steps / simS

	var clauses int64
	encS := medianOf(reps, func() {
		enc := circuit.NewEncoder(prod.Circuit, sat.New())
		for _, r := range prod.Circuit.Regs() {
			enc.RegNextLits(r.Name) //nolint:errcheck // the name is the circuit's own
		}
		clauses = enc.Stats().Clauses
	})
	m["circuit.encode_s"] = encS
	m["circuit.encode_clauses"] = float64(clauses)
	m["circuit.encode_clauses_per_s"] = float64(clauses) / encS
}

// satProbes run the shared sat.BenchWorkloads family: ns per operation over
// ~100 ms of each.
func satProbes(m map[string]float64) {
	for _, w := range sat.BenchWorkloads() {
		op := w.New()
		if op() != nil { // also the warm-up
			continue
		}
		iters := 0
		start := time.Now()
		for time.Since(start) < 100*time.Millisecond {
			op() //nolint:errcheck // checked once above; the workload is deterministic
			iters++
		}
		m["sat.probe_ns."+w.Name] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
}

// proofdbProbes measure the store on a copy of the workload's real one:
// journal appends under the default and the fsync-per-record policy, and a
// snapshot rewrite of everything it holds.
func proofdbProbes(m map[string]float64, storeDir, work string) {
	defer os.RemoveAll(work)
	appendUS := func(sync proofdb.SyncPolicy, n int) (float64, *proofdb.DB) {
		os.RemoveAll(work)
		if copyDir(storeDir, work) != nil {
			return 0, nil
		}
		db, err := proofdb.Open(work, proofdb.Options{Journal: proofdb.JournalOptions{Enable: true, Sync: sync}})
		if err != nil {
			return 0, nil
		}
		lat := make([]float64, n)
		for i := range lat {
			delta := &proofdb.Snapshot{Keys: []proofdb.KeyRecord{{
				Key:      "bench-probe",
				Verdicts: []proofdb.Verdict{{A: uint64(i) + 1, B: uint64(i) + 1, OK: true, Preds: []string{"p"}}},
			}}}
			start := time.Now()
			db.Append(delta)
			lat[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
		return median(lat), db
	}

	us, db := appendUS(proofdb.SyncOnFlush, 512)
	if db == nil {
		return
	}
	m["proofdb.append_us"] = us
	start := time.Now()
	if db.Flush() == nil {
		m["proofdb.flush_s"] = time.Since(start).Seconds()
	}
	db.Abandon()

	if us, db = appendUS(proofdb.SyncEveryRecord, 32); db != nil {
		m["proofdb.append_us.sync-every"] = us
		db.Abandon()
	}
}
