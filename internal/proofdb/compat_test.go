package proofdb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// The tests in this file pin the version-compatibility contract:
//
//   - the header version stays at 1 across record-type additions, so
//     readers skip the types they do not know record-locally;
//   - a store laid out by an older engine — learnt-clause records in
//     proof.db, write-ahead segments beside it — opens without error, keeps
//     every verdict and abduct, and drops the rest;
//   - malformed cone records are corruption, handled like any other torn
//     record.

// TestConeRecordsKeepV1Header is the backward-compatibility anchor: a store
// containing cone-abduct records still declares "HHPDB v1", which is the
// precondition for a v1-era reader to open it at all (a header bump would
// cold-start it wholesale instead of record-locally).
func TestConeRecordsKeepV1Header(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir) // testSnapshot carries cone-abduct records
	_, raw := storeFile(t, dir)
	if !bytes.HasPrefix(raw, []byte("HHPDB v1\n")) {
		t.Fatalf("cone-aware store header = %q, want HHPDB v1", bytes.SplitN(raw, []byte("\n"), 2)[0])
	}
	if !bytes.Contains(raw, []byte(`"t":"coneabd"`)) {
		t.Fatal("store contains no cone-abduct record lines")
	}
}

// TestConeAbductPermutationDedups: the same (target, member set) under
// permuted member order is one record.
func TestConeAbductPermutationDedups(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{})
	db.Merge(&Snapshot{Keys: []KeyRecord{{
		Key: "cone:k|",
		Abducts: []Abduct{
			{Target: "t", Preds: []string{"a", "b"}},
			{Target: "t", Preds: []string{"b", "a"}}, // permutation
			{Target: "u", Preds: []string{"a", "b"}}, // different target: kept
		},
	}}})
	if n := db.Snapshot().Len(); n != 2 {
		t.Fatalf("permuted abduct not deduped: %d records, want 2", n)
	}
}

// TestMalformedConeRecordsAreCorruption: cone records that violate the
// schema (no target, an empty member ID) are skipped and counted exactly
// like torn lines, without disturbing their neighbors.
func TestMalformedConeRecordsAreCorruption(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	path, raw := storeFile(t, dir)
	at := time.Now().Unix()
	bad := []*record{
		{T: recConeAbduct, Key: "cone:k|", At: at},                           // no target
		{T: recConeAbduct, Key: "cone:k|", At: at, Preds: []string{"t", ""}}, // empty member
		{T: recConeAbduct, Key: "", At: at, Preds: []string{"t"}},            // no key
	}
	for _, r := range bad {
		enc, err := encodeLine(r)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, enc...)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db := mustOpen(t, dir, Options{})
	if got := db.Stats().CorruptSkipped; got != int64(len(bad)) {
		t.Fatalf("CorruptSkipped = %d, want %d", got, len(bad))
	}
	if got, want := db.Snapshot().Len(), testSnapshot().Len(); got != want {
		t.Fatalf("malformed cone records perturbed the load: %d records, want %d", got, want)
	}
}

// TestMixedStoreAgingEvictsConeRecords: the staleness policy applies to
// cone records identically (they age out and empty keys are dropped).
func TestMixedStoreAgingEvictsConeRecords(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	db := mustOpen(t, dir, Options{Now: func() time.Time { return now }})
	db.Merge(testSnapshot())
	db.opts.Now = func() time.Time { return now.Add(DefaultMaxAge + time.Hour) }
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().AgeEvicted; got != int64(testSnapshot().Len()) {
		t.Fatalf("AgeEvicted = %d, want %d (cone records must age too)", got, testSnapshot().Len())
	}
	if n := db.Snapshot().Len(); n != 0 {
		t.Fatalf("%d records survived aging", n)
	}
}

// legacyStore is proof.db as an older engine laid it out: verdict, abduct
// and learnt-clause records under the v1 header (clock 1_700_000_000).
const legacyStore = "HHPDB v1\n" +
	"78ff5d75\t{\"t\":\"verdict\",\"k\":\"fp0|env0\",\"at\":1700000000,\"a\":1,\"b\":2,\"ok\":true,\"p\":[\"p1\",\"p2\"]}\n" +
	"8012c5c3\t{\"t\":\"clause\",\"k\":\"fp0|env0\",\"at\":1700000000,\"l\":[{\"n\":\"a\"},{\"n\":\"b\",\"g\":true}]}\n" +
	"48a4f5f1\t{\"t\":\"verdict\",\"k\":\"fp0|env0\",\"at\":1700000000,\"a\":3,\"b\":4}\n" +
	"3b26b850\t{\"t\":\"clause\",\"k\":\"fp1|env1\",\"at\":1700000000,\"l\":[{\"n\":\"x\"}]}\n" +
	"e4a7e76f\t{\"t\":\"coneabd\",\"k\":\"cone:00c0ffee|env0\",\"at\":1700000000,\"p\":[\"t0\",\"p1\"]}\n"

// legacySegment is a write-ahead segment an older engine left beside
// proof.db: one verdict that is not in proof.db.
const legacySegment = "HHWAL v1\n" +
	"bcbfec05\t0000000000000001\t{\"t\":\"verdict\",\"k\":\"k\",\"at\":1700000000,\"a\":1,\"b\":1,\"ok\":true,\"p\":[\"p\"]}\n"

// TestLegacyStoreLayoutMigrates opens a store directory written by an
// older engine: every verdict and abduct in proof.db loads, the clause
// lines are skipped without counting as corruption, and the segment is
// removed unread.
func TestLegacyStoreLayoutMigrates(t *testing.T) {
	for _, appends := range []bool{false, true} {
		dir := t.TempDir()
		seg := filepath.Join(dir, "journal-0000000000000001.wal")
		if err := os.WriteFile(filepath.Join(dir, FileName), []byte(legacyStore), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, []byte(legacySegment), 0o644); err != nil {
			t.Fatal(err)
		}
		now := time.Unix(1_700_000_000, 0)
		db, err := Open(dir, Options{Now: func() time.Time { return now }, Journal: JournalOptions{Enable: appends}})
		if err != nil {
			t.Fatalf("Open of a legacy store directory: %v", err)
		}
		st := db.Stats()
		if st.VerdictsLoaded != 2 || st.AbductsLoaded != 1 || st.ClausesLoaded != 0 {
			t.Fatalf("loaded verdicts=%d abducts=%d clauses=%d, want 2/1/0",
				st.VerdictsLoaded, st.AbductsLoaded, st.ClausesLoaded)
		}
		if st.CorruptSkipped != 0 || st.HeaderRejected || st.JournalReplayed != 3 {
			t.Fatalf("legacy store read as damaged: %+v", st)
		}
		want := &Snapshot{Keys: []KeyRecord{
			{Key: "cone:00c0ffee|env0", Abducts: []Abduct{{Target: "t0", Preds: []string{"p1"}}}},
			{Key: "fp0|env0", Verdicts: []Verdict{
				{A: 1, B: 2, OK: true, Preds: []string{"p1", "p2"}},
				{A: 3, B: 4},
			}},
		}}
		if got := db.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("legacy store loaded\n %+v\nwant %+v", got, want)
		}
		if _, err := os.Stat(seg); !os.IsNotExist(err) {
			t.Fatalf("leftover segment not removed (stat err=%v)", err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if _, raw := storeFile(t, dir); bytes.Contains(raw, []byte(`"t":"clause"`)) {
			t.Fatal("the rewrite kept the legacy clause lines")
		}
	}
}
