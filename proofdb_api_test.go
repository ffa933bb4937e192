package hhoudini_test

// End-to-end tests of the persistent proof store through the public facade:
// the >=90% warm-process acceptance bound, cold-start degradation on a
// corrupted store, and a store written under an older cone-key scheme.

import (
	"os"
	"path/filepath"
	"testing"

	hh "hhoudini"
	core "hhoudini/internal/hhoudini"
	"hhoudini/internal/proofdb"
)

// verifyInDir runs one "process": a fresh private VerifyCache bound to the
// proof store in dir, one Verify of the exec-stage safe set, and returns the
// result. CloseProofDBs (the caller's job) stands in for process exit.
func verifyInDir(t *testing.T, tgt *hh.Target, dir string, safe []string) *hh.Result {
	t.Helper()
	opts := hh.DefaultAnalysisOptions()
	opts.Learner.Cache = hh.NewVerifyCache() // no in-memory state carries over
	opts.Learner.CacheDir = dir
	a, err := hh.NewAnalysis(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify(safe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant == nil {
		t.Fatalf("verification failed: %s", res.Reason)
	}
	return res
}

// TestProofDBWarmProcessAnswersFromDisk is the acceptance bound from the
// issue: a second process run pointed at the same -cache-dir must answer at
// least 90% of its abduction queries from restored memos. Both "processes"
// use a brand-new VerifyCache, so every warm answer can only come from disk.
func TestProofDBWarmProcessAnswersFromDisk(t *testing.T) {
	tgt := execStageTarget(t)
	dir := t.TempDir()
	safe := []string{"add"}

	cold := verifyInDir(t, tgt, dir, safe)
	if cold.Stats.CacheDiskFlushes == 0 {
		t.Fatal("cold process never flushed the proof store")
	}
	if err := hh.CloseProofDBs(); err != nil { // simulated process exit
		t.Fatal(err)
	}

	warm := verifyInDir(t, tgt, dir, safe)
	defer hh.CloseProofDBs()
	s := warm.Stats
	if s.Queries == 0 {
		t.Fatal("warm process made no queries; test is vacuous")
	}
	if s.CacheDiskLoads == 0 {
		t.Fatal("warm process restored nothing from disk")
	}
	if s.CacheDiskHits < (s.Queries*9+9)/10 {
		t.Fatalf("disk hits %d of %d queries (%.1f%%): below the 90%% acceptance bound",
			s.CacheDiskHits, s.Queries, 100*float64(s.CacheDiskHits)/float64(s.Queries))
	}
	if cold.Invariant.Size() != warm.Invariant.Size() {
		t.Fatalf("warm invariant size %d differs from cold %d",
			warm.Invariant.Size(), cold.Invariant.Size())
	}
	t.Logf("warm process: %d/%d queries answered from disk (%.1f%%), %d records restored",
		s.CacheDiskHits, s.Queries,
		100*float64(s.CacheDiskHits)/float64(s.Queries), s.CacheDiskLoads)
}

// TestProofDBCorruptedStoreColdStarts: pointing -cache-dir at a mangled
// store must not error — the run degrades to a cold start and rewrites a
// valid store at shutdown.
func TestProofDBCorruptedStoreColdStarts(t *testing.T) {
	tgt := execStageTarget(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "proof.db")
	if err := os.WriteFile(path, []byte("\xde\xad\xbe\xefthis is not a proof store\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	res := verifyInDir(t, tgt, dir, []string{"add"})
	if res.Stats.CacheDiskHits != 0 {
		t.Fatal("corrupted store produced disk hits")
	}
	if err := hh.CloseProofDBs(); err != nil {
		t.Fatal(err)
	}

	// The rewritten store must now warm-start a fresh process.
	warm := verifyInDir(t, tgt, dir, []string{"add"})
	defer hh.CloseProofDBs()
	if warm.Stats.CacheDiskHits == 0 {
		t.Fatal("store was not repopulated after the corrupt cold start")
	}
}

// v1ConeKeyRecords are the records a cold Verify of the exec-stage safe set
// {add} left in its proof store when cone keys were a canonical walk of the
// union cone under the tag "hhoudini-cone-fp/v1": the abducts the current
// build derives too, filed under keys it no longer computes.
var v1ConeKeyRecords = []proofdb.KeyRecord{
	{Key: "cone:2fbc6152393f0b48d394b192c1eb9a62|safeset:opcode_in;3/0;3/1", Abducts: []proofdb.Abduct{
		{Target: "Eq(opcode)"},
		{Target: "InSafeSet(opcode)"},
	}},
	{Key: "cone:50d673629db656d47ccb6c2e2948d406|safeset:opcode_in;3/0;3/1", Abducts: []proofdb.Abduct{
		{Target: "Eq(valid_add)", Preds: []string{"Eq(opcode)"}},
	}},
	{Key: "cone:d83401759a8373b346f5686d3fa73ac3|safeset:opcode_in;3/0;3/1", Abducts: []proofdb.Abduct{
		{Target: "Eq(valid)", Preds: []string{"Eq(valid_add)", "InSafeSet(opcode)"}},
	}},
}

// TestProofDBUpgradesOldConeKeys opens a store written under the previous
// cone-key scheme. Its records are well formed, so the store opens with
// nothing reported corrupt; their keys never equal a current one, so the
// first Verify answers every query cold, and correctly. That run's flush
// files its answers under current keys, and a second process answers every
// query from disk.
func TestProofDBUpgradesOldConeKeys(t *testing.T) {
	tgt := execStageTarget(t)
	dir := t.TempDir()
	safe := []string{"add"}

	// Written at the current time, so age eviction keeps every record.
	db, err := proofdb.Open(dir, proofdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append(&proofdb.Snapshot{Keys: v1ConeKeyRecords})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	first := verifyInDir(t, tgt, dir, safe)
	st, ok := core.ProofDBStatsFor(dir)
	if !ok {
		t.Fatal("no proof store bound to the cache directory")
	}
	if st.CorruptSkipped != 0 || st.HeaderRejected || st.AbductsLoaded != 4 {
		t.Fatalf("old-key store opened with corrupt_skipped %d, header rejected %v, %d abducts loaded; want 0, false, 4",
			st.CorruptSkipped, st.HeaderRejected, st.AbductsLoaded)
	}
	if err := hh.CloseProofDBs(); err != nil {
		t.Fatal(err)
	}
	if first.Stats.Queries == 0 || first.Stats.CacheDiskHits != 0 {
		t.Fatalf("first verify: %d disk hits of %d queries, want 0 of at least 1",
			first.Stats.CacheDiskHits, first.Stats.Queries)
	}

	second := verifyInDir(t, tgt, dir, safe)
	defer hh.CloseProofDBs()
	if s := second.Stats; s.Queries == 0 || s.CacheDiskHits != s.Queries {
		t.Fatalf("second verify: %d disk hits of %d queries, want all", s.CacheDiskHits, s.Queries)
	}
	if second.Invariant.Size() != first.Invariant.Size() {
		t.Fatalf("second invariant size %d differs from first %d", second.Invariant.Size(), first.Invariant.Size())
	}
}
