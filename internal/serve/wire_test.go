package serve

import (
	"encoding/json"
	"testing"

	core "hhoudini/internal/hhoudini"
	"hhoudini/internal/proofdb"
)

// TestWireNames pins the JSON names GET /v1/jobs/{id} and GET /v1/stats
// emit for every counter, each carrying the value of the field it names.
func TestWireNames(t *testing.T) {
	job := StatsView{
		Counters: core.Counters{
			Tasks: 1, Backtracks: 2, Queries: 3, SolverAllocs: 4, PoolReuses: 5,
			EncodedClauses: 6, CacheVerdictHits: 7, CacheAbductHits: 8,
			CacheDiskHits: 9, QueryRetries: 10,
		},
		WallTimeMS:   11,
		WarmFraction: 0.5,
	}
	checkNames(t, job, map[string]any{
		"tasks": 1.0, "backtracks": 2.0, "queries": 3.0, "solver_allocs": 4.0,
		"pool_reuses": 5.0, "encoded_clauses": 6.0, "cache_verdict_hits": 7.0,
		"cache_abduct_hits": 8.0, "cache_disk_hits": 9.0, "query_retries": 10.0,
		"wall_time_ms": 11.0, "warm_fraction": 0.5,
	})

	server := ServerStats{
		UptimeMS: 1, Goroutines: 2, Draining: true, Workers: 3,
		JobCounters: JobCounters{
			JobsQueued: 4, JobsRunning: 5, JobsDone: 6, JobsFailed: 7, JobsCanceled: 8,
			Accepted: 9, RejectedBusy: 10, RejectedGone: 11,
		},
		QueueDepth: map[string]int{"t": 12},
		Cache: core.CacheCounters{
			KeyEvictions: 13, VerdictHits: 14, VerdictMisses: 15, AbductHits: 16,
			DiskVerdictsLoaded: 17, DiskVerdictHits: 18, Entries: 19, ApproxBytes: 20,
			BytesHighWater: 21,
		},
		ProofDB: &proofdb.Stats{
			Flushes: 22, BytesOnDisk: 23, JournalAppends: 24, JournalSyncs: 25,
			JournalReplayed: 26, JournalTornTails: 27, JournalDegraded: true,
		},
	}
	checkNames(t, server, map[string]any{
		"uptime_ms": 1.0, "goroutines": 2.0, "draining": true, "workers": 3.0,
		"jobs_queued": 4.0, "jobs_running": 5.0, "jobs_done": 6.0, "jobs_failed": 7.0,
		"jobs_canceled": 8.0, "accepted": 9.0, "rejected_busy": 10.0, "rejected_gone": 11.0,
		"queue_depth": map[string]any{"t": 12.0},
		"cache": map[string]any{
			"KeyEvictions": 13.0, "VerdictHits": 14.0, "VerdictMisses": 15.0, "AbductHits": 16.0,
			"DiskVerdictsLoaded": 17.0, "DiskVerdictHits": 18.0, "Entries": 19.0,
			"ApproxBytes": 20.0, "BytesHighWater": 21.0,
		},
		"proofdb": map[string]any{
			"flushes": 22.0, "bytes_on_disk": 23.0, "journal_appends": 24.0, "journal_syncs": 25.0,
			"journal_replayed": 26.0, "journal_torn_tails": 27.0, "journal_degraded": true,
		},
	})
}

// checkNames marshals v and checks that every name in want is present with
// its value; in a nested object, only the names want lists are checked.
func checkNames(t *testing.T, v any, want map[string]any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if sub, ok := w.(map[string]any); ok {
			g, _ := got[name].(map[string]any)
			for k, sw := range sub {
				if g[k] != sw {
					t.Errorf("%s.%s = %v, want %v", name, k, g[k], sw)
				}
			}
			continue
		}
		if got[name] != w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}
