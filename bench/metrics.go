package main

// Metric names, units and directions — BENCHMARK.json lists exactly these
// (a test compares the two) — and their computation from a run's data.
// Later issues cite these names; renaming one breaks every comparison made
// against BASELINE.json.

import "strings"

type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees. Every workload reports all
// four from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},         // process start → first timed round: builds, store priming, one warm-up round
	{"round_s", "s", "lower"},         // median wall time to answer one round's verdict list
	{"cpu_s_per_round", "s", "lower"}, // median user+system CPU per round: duplicated parallel work, GC, polling
	{"peak_rss_mb", "MB", "lower"},    // VmHWM after timed round minRounds
}

// bounds is the share of the parent's median by which each end-to-end
// metric may get worse before a change counts as a regression. The issue
// that defined the benchmark fixed 10% on all four and A/A gaps under 5%;
// the three timings do NOT meet that on the 2-core sandbox and the
// benchmark is reported as not meeting it (README.md, "How steady it is").
// Ten runs of identical code spread up to 7.4% between their quartiles in a
// calm half hour and up to 18% in a bad one, the benchmark contract accepts a
// bound only at three times the spread seen, and its run-time cap leaves no
// room for longer rounds. Memory meets 10%.
var bounds = map[string]float64{
	"setup_s":         0.25,
	"round_s":         0.25,
	"cpu_s_per_round": 0.25,
	"peak_rss_mb":     0.10,
}

// perLayer is measured by a traced run, from outside: spans around public
// calls, the exported Stats counters, and probes on fixed inputs. "per
// round" is the mean over the traced rounds. The benchmark contract wants
// every name in every traced run's result line, so the metrics of a layer
// the workload does not exercise (conditionalLayers) read 0 there and n/a
// in the printed table.
var perLayer = []metricDef{
	// design, miter: per-round span time.
	{"design.build_s", "s", "lower"},
	{"miter.build_s", "s", "lower"},

	// circuit: probes on a fresh MegaOoO product, the same on every workload.
	{"circuit.supports_s", "s", "lower"},              // WarmSupports
	{"circuit.fingerprint_s", "s", "lower"},           // ConeFingerprint of every register's support, cold cone table
	{"circuit.sim_steps_per_s", "1/s", "higher"},      // seeded instruction stream
	{"circuit.encode_s", "s", "lower"},                // full next-state relation into a fresh solver
	{"circuit.encode_clauses", "count", "lower"},      //   … clauses that took
	{"circuit.encode_clauses_per_s", "1/s", "higher"}, //   … and the rate

	// veloct: per-round span time and counts.
	{"veloct.examples_s", "s", "lower"}, // BuildMinerCtx
	{"veloct.examples", "count", "lower"},
	{"veloct.mine_s", "s", "lower"}, // busy time in the mining oracle, summed over workers
	{"veloct.mine_calls", "count", "lower"},
	{"veloct.mined_preds", "count", "lower"},
	{"veloct.simunsafe_s", "s", "lower"},
	{"veloct.verdict_s.inorder", "s", "lower"}, // median wall of the round's operation on that design
	{"veloct.verdict_s.small", "s", "lower"},
	{"veloct.verdict_s.small-dbg", "s", "lower"},
	{"veloct.verdict_s.medium", "s", "lower"},

	// hhoudini: per-round sums of the learners' Stats.
	{"hhoudini.learn_s", "s", "lower"},
	{"hhoudini.query_s", "s", "lower"},     // Stats.TotalQueryTime: cone keying, memo lookup, encoding, SAT
	{"hhoudini.query_s.p50", "s", "lower"}, // of the round's largest verification
	{"hhoudini.query_s.p95", "s", "lower"},
	{"hhoudini.self_s", "s", "lower"}, // learn − mine − query; one worker only
	{"hhoudini.tasks", "count", "lower"},
	{"hhoudini.backtracks", "count", "lower"},
	{"hhoudini.queries", "count", "lower"},
	{"hhoudini.encoded_clauses", "count", "lower"},
	{"hhoudini.solver_allocs", "count", "lower"},
	{"hhoudini.pool_reuse_ratio", "ratio", "higher"}, // PoolReuses / Queries
	{"hhoudini.memo_hit_ratio", "ratio", "higher"},   // (verdict + abduct hits) / Queries
	{"hhoudini.disk_hit_ratio", "ratio", "higher"},   // disk hits / Queries
	{"hhoudini.span_s", "s", "lower"},                // critical path through the task graph
	{"hhoudini.work_s", "s", "lower"},                // total task time
	{"hhoudini.par_efficiency", "ratio", "higher"},   // work / (workers × learn wall)
	{"hhoudini.share_imported", "count", "higher"},
	{"hhoudini.query_retries", "count", "lower"},
	{"hhoudini.cache_bytes", "bytes", "lower"}, // largest durable cache footprint of the round
	{"hhoudini.audit_s", "s", "lower"},         // monolithic audit of the last round's invariants

	// sat: the learners' conflict totals and the shared probe family.
	{"sat.conflicts", "count", "lower"},
	{"sat.conflicts_per_s", "1/s", "higher"}, // conflicts / query_s
	{"sat.probe_ns.propagate_chains", "ns", "lower"},
	{"sat.probe_ns.propagate_wide", "ns", "lower"},
	{"sat.probe_ns.solve_php", "ns", "lower"},
	{"sat.probe_ns.solve_random3sat", "ns", "lower"},

	// proofdb: per-round span time and store counters; probes on the
	// workload's own store.
	{"proofdb.open_s", "s", "lower"},  // first CacheDir bind: load + journal replay + restore
	{"proofdb.close_s", "s", "lower"}, // CloseProofDBs: merge + snapshot rewrite + compaction
	{"proofdb.records_loaded", "count", "lower"},
	{"proofdb.journal_replayed", "count", "lower"},
	{"proofdb.journal_appends", "count", "lower"},
	{"proofdb.bytes_on_disk", "bytes", "lower"},
	{"proofdb.corrupt_skipped", "count", "lower"},
	{"proofdb.append_us", "us", "lower"},            // median Append, default sync policy
	{"proofdb.append_us.sync-every", "us", "lower"}, //   … with an fsync per record
	{"proofdb.flush_s", "s", "lower"},               // snapshot rewrite of the whole store

	// serve: client-observed and server-stamped job timings.
	{"serve.job_s.p50", "s", "lower"},
	{"serve.job_s.p95", "s", "lower"},
	{"serve.queue_wait_s.p50", "s", "lower"},
	{"serve.run_s.p50", "s", "lower"},
	{"serve.client_overhead_s.p50", "s", "lower"}, // job_s − (done − queued)
	{"serve.submit_rtt_us", "us", "lower"},
	{"serve.rejected_429", "count", "lower"},
	{"serve.jobs_failed", "count", "lower"},
	{"serve.warm_fraction", "ratio", "higher"}, // mean over the warm jobs

	// Go runtime, over the timed region.
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.alloc_mb_per_round", "MB", "lower"},
	{"runtime.mallocs_per_round", "count", "lower"},
	{"runtime.heap_inuse_mb", "MB", "lower"},

	// The tracing itself.
	{"trace.coverage", "ratio", "higher"}, // least-covered operation: children ÷ operation wall
	{"trace.overhead_pct", "%", "lower"},  // traced round_s against the untraced rounds of the same run
}

// conditionalLayers are the layers only some workloads exercise, by metric
// prefix, each with the metrics of which one at least is positive once the
// layer has run (a store has loaded records or appended some): all of them
// 0 on a workload that does exercise the layer means the layer stopped
// reporting, and makes the run incorrect.
var conditionalLayers = map[string][]string{
	"proofdb.": {"proofdb.records_loaded", "proofdb.journal_appends"}, // workloads with a proof store: warm-restart, serve-mix
	"serve.":   {"serve.job_s.p50"},                                   // serve-mix
}

// exercised reports whether the run's workload uses the layer the per-layer
// metric belongs to.
func exercised(name string, rd *runData) bool {
	switch {
	case strings.HasPrefix(name, "proofdb."):
		return rd.storeDir != ""
	case strings.HasPrefix(name, "serve."):
		return rd.serve != nil
	}
	return true
}

// minCoverage is the acceptance floor on trace.coverage.
const minCoverage = 0.95

// samples is a metric with the observations behind it.
type samples struct {
	value float64
	obs   []float64 // nil when the metric is a single reading
	na    bool      // the workload does not exercise the metric's layer
}

func sampled(obs []float64) samples { return samples{value: median(obs), obs: obs} }

// endToEndMetrics computes the gated metrics from the timed rounds.
func endToEndMetrics(rd *runData) map[string]samples {
	var walls, cpus []float64
	for _, r := range rd.rounds {
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
	}
	return map[string]samples{
		"setup_s":         {value: rd.setupS},
		"round_s":         sampled(walls),
		"cpu_s_per_round": sampled(cpus),
		"peak_rss_mb":     {value: rd.peakRSS},
	}
}

// attributionRounds groups the operations the per-layer numbers are
// computed from: the traced rounds, or for serve-mix — whose jobs run
// behind the wire — the in-process replay.
func attributionRounds(rd *runData) [][]opResult {
	if rd.serve != nil {
		return [][]opResult{rd.replay}
	}
	var out [][]opResult
	for _, r := range rd.rounds {
		if r.traced {
			out = append(out, r.ops)
		}
	}
	return out
}

// perLayerMetrics computes every per-layer metric of a traced run.
func perLayerMetrics(rd *runData) map[string]samples {
	m := make(map[string]float64)
	groups := attributionRounds(rd)
	n := float64(len(groups))
	if n == 0 {
		n = 1
	}

	// Span time per name, per attribution round.
	keep := func(s span) bool {
		if rd.serve != nil {
			return s.Round == replayRound
		}
		return s.Round >= 0
	}
	spanS := make(map[string]float64)
	for _, s := range rd.spans {
		if keep(s) {
			spanS[s.Name] += s.dur()
		}
	}
	for name, metric := range map[string]string{
		"design.build":     "design.build_s",
		"miter.build":      "miter.build_s",
		"veloct.examples":  "veloct.examples_s",
		"veloct.mine":      "veloct.mine_s",
		"veloct.simunsafe": "veloct.simunsafe_s",
		"hhoudini.learn":   "hhoudini.learn_s",
		"proofdb.open":     "proofdb.open_s",
		"proofdb.close":    "proofdb.close_s",
	} {
		m[metric] = spanS[name] / n
	}

	// Learner and store counters, summed per round.
	var sum learnCounters
	var examples, mineCalls, minedPreds float64
	var loaded, replayed, appends, corrupt, bytesOnDisk float64
	verdicts := make(map[string][]float64)
	var p50s, p95s []float64
	for _, ops := range groups {
		for _, op := range ops {
			c := op.learn
			sum.add(c)
			examples += float64(op.examples)
			mineCalls += float64(op.mineCalls)
			minedPreds += float64(op.minedPreds)
			st := op.store
			loaded += recordsLoaded(st)
			replayed += float64(st.JournalReplayed)
			appends += float64(st.JournalAppends)
			corrupt += float64(st.CorruptSkipped)
			if b := float64(st.BytesOnDisk); b > bytesOnDisk {
				bytesOnDisk = b
			}
			if !op.spec.unsafe {
				verdicts[op.spec.design] = append(verdicts[op.spec.design], op.wall)
			}
			if op.spec.design == largeDesign && !op.spec.unsafe {
				p50s = append(p50s, c.queryP50)
				p95s = append(p95s, c.queryP95)
			}
		}
	}
	m["veloct.examples"] = examples / n
	m["veloct.mine_calls"] = mineCalls / n
	m["veloct.mined_preds"] = minedPreds / n
	for design, walls := range verdicts {
		if name := "veloct.verdict_s." + strings.ReplaceAll(design, "+", "-"); isPerLayer(name) {
			m[name] = median(walls)
		}
	}
	m["hhoudini.query_s"] = sum.queryS / n
	m["hhoudini.query_s.p50"] = median(p50s)
	m["hhoudini.query_s.p95"] = median(p95s)
	if rd.workers == 1 {
		m["hhoudini.self_s"] = m["hhoudini.learn_s"] - m["veloct.mine_s"] - m["hhoudini.query_s"]
	}
	m["hhoudini.tasks"] = float64(sum.tasks) / n
	m["hhoudini.backtracks"] = float64(sum.backtracks) / n
	m["hhoudini.queries"] = float64(sum.queries) / n
	m["hhoudini.encoded_clauses"] = float64(sum.encodedClauses) / n
	m["hhoudini.solver_allocs"] = float64(sum.solverAllocs) / n
	if q := float64(sum.queries); q > 0 {
		m["hhoudini.pool_reuse_ratio"] = float64(sum.poolReuses) / q
		m["hhoudini.memo_hit_ratio"] = float64(sum.verdictHits+sum.abductHits) / q
		m["hhoudini.disk_hit_ratio"] = float64(sum.diskHits) / q
	}
	m["hhoudini.span_s"] = sum.spanS / n
	m["hhoudini.work_s"] = sum.workS / n
	if learn := m["hhoudini.learn_s"]; learn > 0 {
		m["hhoudini.par_efficiency"] = (sum.workS / n) / (float64(rd.workers) * learn)
	}
	m["hhoudini.share_imported"] = float64(sum.shareImported) / n
	m["hhoudini.query_retries"] = float64(sum.retries) / n
	m["hhoudini.cache_bytes"] = float64(sum.cacheBytes)
	m["hhoudini.audit_s"] = rd.auditS
	m["sat.conflicts"] = float64(sum.conflicts) / n
	if sum.queryS > 0 {
		m["sat.conflicts_per_s"] = float64(sum.conflicts) / sum.queryS
	}
	m["proofdb.records_loaded"] = loaded / n
	m["proofdb.journal_replayed"] = replayed / n
	m["proofdb.journal_appends"] = appends / n
	m["proofdb.corrupt_skipped"] = corrupt / n
	m["proofdb.bytes_on_disk"] = bytesOnDisk

	out := make(map[string]samples, len(perLayer))
	if rd.serve != nil {
		serveMetrics(rd, m, out)
	}

	rounds := float64(len(rd.rounds))
	m["runtime.gc_cpu_s"] = rd.rtEnd.gcCPU - rd.rtStart.gcCPU
	m["runtime.alloc_mb_per_round"] = (rd.rtEnd.allocMB - rd.rtStart.allocMB) / rounds
	m["runtime.mallocs_per_round"] = (rd.rtEnd.mallocs - rd.rtStart.mallocs) / rounds
	m["runtime.heap_inuse_mb"] = rd.rtEnd.heapInuse

	var traced, plain []float64
	for _, r := range rd.rounds {
		if r.traced {
			traced = append(traced, r.wall)
		} else {
			plain = append(plain, r.wall)
		}
	}
	m["trace.coverage"] = coverage(rd.spans)
	if len(plain) > 0 && median(plain) > 0 {
		m["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	}
	for name, v := range rd.probes {
		m[name] = v
	}

	for _, def := range perLayer {
		if !exercised(def.name, rd) {
			out[def.name] = samples{na: true}
		} else if _, ok := out[def.name]; !ok {
			out[def.name] = samples{value: m[def.name]}
		}
	}
	return out
}

// serveMetrics fills the serve.* metrics from every timed round's jobs (job
// timings cost nothing to record, so untraced rounds count too) and the
// store counters from the server's own store.
func serveMetrics(rd *runData, m map[string]float64, out map[string]samples) {
	var jobS, queueWait, runS, overhead, rtt, warm []float64
	var failed float64
	for _, r := range rd.rounds {
		for _, op := range r.ops {
			j := op.job
			if op.err != nil {
				failed++
				continue
			}
			jobS = append(jobS, j.jobS)
			queueWait = append(queueWait, j.queueWait)
			runS = append(runS, j.runS)
			overhead = append(overhead, j.jobS-j.queueWait-j.runS)
			rtt = append(rtt, j.submitRTT*1e6)
			if !j.cold && j.queries > 0 {
				warm = append(warm, j.warmFrac)
			}
		}
	}
	out["serve.job_s.p50"] = samples{value: quantile(jobS, 0.50), obs: jobS}
	out["serve.job_s.p95"] = samples{value: quantile(jobS, 0.95), obs: jobS}
	out["serve.queue_wait_s.p50"] = sampled(queueWait)
	out["serve.run_s.p50"] = sampled(runS)
	out["serve.client_overhead_s.p50"] = sampled(overhead)
	out["serve.submit_rtt_us"] = sampled(rtt)
	m["serve.rejected_429"] = float64(rd.serve.stats.RejectedBusy)
	m["serve.jobs_failed"] = failed
	m["serve.warm_fraction"] = mean(warm)
	rounds := float64(len(rd.rounds) + 1) // the store has seen the warm-up round too
	db := rd.serve.store
	m["proofdb.journal_appends"] = float64(db.JournalAppends) / rounds
	m["proofdb.journal_replayed"] = float64(db.JournalReplayed)
	m["proofdb.corrupt_skipped"] = float64(db.CorruptSkipped)
	m["proofdb.bytes_on_disk"] = float64(db.BytesOnDisk)
}

func isPerLayer(name string) bool {
	for _, def := range perLayer {
		if def.name == name {
			return true
		}
	}
	return false
}
