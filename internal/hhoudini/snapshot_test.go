package hhoudini_test

import (
	"testing"

	"hhoudini/internal/hhoudini"
)

// TestConcurrentStatsSnapshot: a snapshot of a running Learn is one moment
// of it. Every abduction query is answered by exactly one of a solver, a
// Sat-set memo hit or an abduct memo hit, so each snapshot taken while two
// workers learn SmallOoO must read Queries == SolverAllocs +
// CacheVerdictHits + CacheAbductHits, and the last one the cold count.
func TestConcurrentStatsSnapshot(t *testing.T) {
	_, l, targets := smallOoOLearnerWith(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := l.Learn(targets)
		done <- err
	}()
	check := func(s hhoudini.StatsSnapshot) {
		t.Helper()
		if answered := s.SolverAllocs + s.CacheVerdictHits + s.CacheAbductHits; s.Queries != answered {
			t.Fatalf("snapshot reads %d queries but %d answers (%d solvers, %d verdict hits, %d abduct hits)",
				s.Queries, answered, s.SolverAllocs, s.CacheVerdictHits, s.CacheAbductHits)
		}
	}
	polls := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			final := l.Stats().Snapshot()
			check(final)
			if final.Queries != 86 {
				t.Fatalf("final snapshot reads %d queries, want 86", final.Queries)
			}
			t.Logf("%d snapshots of the running Learn", polls)
			return
		default:
			check(l.Stats().Snapshot())
			polls++
		}
	}
}
