package hhoudini_test

// End-to-end tests of the verification cache through the public facade: the
// ≥30% encode-work acceptance bound, verdict equivalence of memo-answered
// vs. cold pipelines (Verify, Synthesize, mutated safe sets), and counter
// plumbing through hh.Result.Stats. A cold run is one over a private, empty
// cache (Cache: NewVerifyCache()).

import (
	"sort"
	"testing"

	hh "hhoudini"
)

func execStageTarget(t *testing.T) *hh.Target {
	t.Helper()
	tgt, err := hh.NewExecStage(hh.ExecStageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func analysisWith(t *testing.T, tgt *hh.Target, cache *hh.VerifyCache) *hh.Analysis {
	t.Helper()
	opts := hh.DefaultAnalysisOptions()
	opts.Learner.Cache = cache
	a, err := hh.NewAnalysis(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCrossRunCacheReducesEncodeWork is the acceptance bound from the issue:
// across repeated verifications of the same safe set, warm runs must encode
// at least 30% fewer clauses than cold runs. (In practice the verdict memo
// answers every repeated query, so the warm figure is near zero.)
func TestCrossRunCacheReducesEncodeWork(t *testing.T) {
	tgt := execStageTarget(t)
	safe := []string{"add"}
	const runs = 3

	verify := func(a *hh.Analysis) *hh.Result {
		res, err := a.Verify(safe)
		if err != nil {
			t.Fatal(err)
		}
		if res.Invariant == nil {
			t.Fatalf("verification failed: %s", res.Reason)
		}
		return res
	}

	var cold int64
	for i := 0; i < runs; i++ {
		cold += verify(analysisWith(t, tgt, hh.NewVerifyCache())).Stats.EncodedClauses
	}
	if cold == 0 {
		t.Fatal("cold runs encoded nothing; the metric is broken")
	}

	var warm, verdictHits int64
	aWarm := analysisWith(t, tgt, hh.NewVerifyCache())
	verify(aWarm) // untimed warmup populates the private cache
	for i := 0; i < runs; i++ {
		res := verify(aWarm)
		warm += res.Stats.EncodedClauses
		verdictHits += res.Stats.CacheVerdictHits
	}

	if 10*warm > 7*cold {
		t.Fatalf("warm runs encoded %d clauses vs %d cold; want >=30%% reduction", warm, cold)
	}
	if verdictHits == 0 {
		t.Fatal("warm runs recorded no verdict hits; the cache never engaged")
	}
	t.Logf("encoded clauses: cold %d, warm %d (-%.1f%%), verdict hits %d",
		cold, warm, 100*float64(cold-warm)/float64(cold), verdictHits)
}

// TestCrossRunSynthesizeDifferential runs full safe-set synthesis twice over
// one cache — cold, then again with every repeated query answered from the
// first run's memos: the synthesized safe sets must be identical and the
// final proof must be produced both times.
func TestCrossRunSynthesizeDifferential(t *testing.T) {
	tgt := execStageTarget(t)

	synthesize := func(cache *hh.VerifyCache) *hh.Synthesis {
		a := analysisWith(t, tgt, cache)
		syn, err := a.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		if syn.Result == nil || syn.Result.Invariant == nil {
			t.Fatal("synthesis did not produce a proved safe set")
		}
		return syn
	}

	cache := hh.NewVerifyCache()
	cold := synthesize(cache)
	warm := synthesize(cache)
	if warm.Result.Stats.CacheVerdictHits+warm.Result.Stats.CacheAbductHits == 0 {
		t.Fatal("second synthesis recorded no memo hits; the differential is vacuous")
	}

	sortedCopy := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	cs, ws := sortedCopy(cold.Safe), sortedCopy(warm.Safe)
	if len(cs) != len(ws) {
		t.Fatalf("safe sets differ: cold %v warm %v", cs, ws)
	}
	for i := range cs {
		if cs[i] != ws[i] {
			t.Fatalf("safe sets differ: cold %v warm %v", cs, ws)
		}
	}
	cu, wu := sortedCopy(cold.Unsafe), sortedCopy(warm.Unsafe)
	if len(cu) != len(wu) {
		t.Fatalf("unsafe sets differ: cold %v warm %v", cu, wu)
	}
}

// TestCrossRunMutatedSafeSetsDifferential verifies a sequence of different
// safe sets — including a provably unsafe one — against one shared cache
// and against cold runs: every verdict must agree per set. Changing the
// safe set changes the environment assumption, so correctness here is
// exactly the invalidation story (stale hits across EnvKeys would flip the
// unsafe verdict).
func TestCrossRunMutatedSafeSetsDifferential(t *testing.T) {
	tgt := execStageTarget(t)
	sets := [][]string{
		{"add"},
		{"add", "mul"}, // mul leaks timing on the exec stage: must fail
		{},
		{"add"}, // repeat: warm run may answer from the memo
	}

	aWarm := analysisWith(t, tgt, hh.NewVerifyCache())

	var warmHits int64
	for i, safe := range sets {
		rc, err := analysisWith(t, tgt, hh.NewVerifyCache()).Verify(safe)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := aWarm.Verify(safe)
		if err != nil {
			t.Fatal(err)
		}
		if (rc.Invariant == nil) != (rw.Invariant == nil) {
			t.Fatalf("set %d %v: cold proved=%v warm proved=%v",
				i, safe, rc.Invariant != nil, rw.Invariant != nil)
		}
		warmHits += rw.Stats.CacheVerdictHits
	}
	if warmHits == 0 {
		t.Fatal("repeated safe set never hit the verdict memo")
	}
}
