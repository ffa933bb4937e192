package proofdb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hhoudini/internal/faultinject"
)

// verdictDelta builds a one-record snapshot: verdict #i under key "k".
func verdictDelta(i uint64) *Snapshot {
	return &Snapshot{Keys: []KeyRecord{{
		Key:      "k",
		Verdicts: []Verdict{{A: i, B: i, OK: true, Preds: []string{"p"}}},
	}}}
}

// verdictSet reopens dir (appends off) and returns the set of verdict
// A-values stored under key "k".
func verdictSet(t *testing.T, dir string) map[uint64]bool {
	t.Helper()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery Open must never fail: %v", err)
	}
	got := map[uint64]bool{}
	for _, kr := range db.Snapshot().Keys {
		if kr.Key != "k" {
			continue
		}
		for _, v := range kr.Verdicts {
			got[v.A] = true
		}
	}
	return got
}

// assertPrefix checks that got is exactly {1..k} for some k, and returns k.
func assertPrefix(t *testing.T, got map[uint64]bool) uint64 {
	t.Helper()
	k := uint64(len(got))
	for i := uint64(1); i <= k; i++ {
		if !got[i] {
			t.Fatalf("recovered state is not a prefix: %d records but #%d missing", len(got), i)
		}
	}
	return k
}

// assertOnlyStoreFile checks that dir holds proof.db and nothing else.
func assertOnlyStoreFile(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != FileName {
			t.Fatalf("unexpected file in the store directory: %s", e.Name())
		}
	}
}

func TestJournalAppendSurvivesAbandon(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Journal: JournalOptions{Enable: true, Sync: SyncEveryRecord}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := uint64(1); i <= n; i++ {
		db.Append(verdictDelta(i))
	}
	st := db.Stats()
	if st.JournalAppends != n {
		t.Fatalf("JournalAppends = %d, want %d", st.JournalAppends, n)
	}
	if st.JournalSyncs != n {
		t.Fatalf("JournalSyncs = %d under SyncEveryRecord, want %d", st.JournalSyncs, n)
	}
	if st.Flushes != 0 {
		t.Fatalf("appends triggered %d rewrites; appends must not rewrite the store", st.Flushes)
	}
	// Simulated kill -9: no Flush, no Close, no sync.
	db.Abandon()

	got := verdictSet(t, dir)
	if k := assertPrefix(t, got); k != n {
		t.Fatalf("recovered %d/%d records under every-record sync; loss must be zero", k, n)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := db2.Stats(); st.JournalReplayed != n {
		t.Fatalf("JournalReplayed = %d, want %d", st.JournalReplayed, n)
	}
}

func TestJournalTornTailTruncatedRecordLocally(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Journal: JournalOptions{Enable: true, Sync: SyncEveryRecord}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := uint64(1); i <= n; i++ {
		db.Append(verdictDelta(i))
	}
	db.Abandon()

	path, raw := storeFile(t, dir)
	// Tear the last record mid-line.
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery Open must never fail: %v", err)
	}
	st := db2.Stats()
	if st.JournalTornTails == 0 {
		t.Fatal("torn tail not counted")
	}
	if st.JournalReplayed != n-1 {
		t.Fatalf("JournalReplayed = %d, want %d", st.JournalReplayed, n-1)
	}
	got := verdictSet(t, dir)
	if k := assertPrefix(t, got); k != n-1 {
		t.Fatalf("recovered %d records after tearing the last; want exactly %d", k, n-1)
	}
	// Recovery physically truncated the tail back to the last good record,
	// so the next Open sees a clean file: no new torn tail.
	db3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := db3.Stats(); st.JournalTornTails != 0 {
		t.Fatalf("tail not physically truncated: second recovery counted %d torn tails", st.JournalTornTails)
	}
}

// TestJournalCompactionRidesFlushAndCloseIsClean: a rewrite folds the
// appended lines in, appends continue on the new file, and a clean Close
// leaves one compact proof.db.
func TestJournalCompactionRidesFlushAndCloseIsClean(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Journal: JournalOptions{Enable: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		db.Append(verdictDelta(i))
		db.Append(verdictDelta(i)) // a refresh: a second line, one record
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().JournalAppends; n != 10 {
		t.Fatalf("JournalAppends = %d, want 10", n)
	}
	if _, raw := storeFile(t, dir); bytes.Count(raw, []byte("\n")) != 1+5 {
		t.Fatalf("rewrite kept the duplicate lines:\n%s", raw)
	}
	for i := uint64(6); i <= 8; i++ {
		db.Append(verdictDelta(i))
	}
	// Appends after the rewrite land in the renamed file, not the old inode.
	if got := verdictSet(t, dir); len(got) != 8 {
		t.Fatalf("after rewrite + 3 appends the file holds %d records, want 8", len(got))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	assertOnlyStoreFile(t, dir)
	got := verdictSet(t, dir)
	if k := assertPrefix(t, got); k != 8 {
		t.Fatalf("recovered %d/8 records after flush+append+close", k)
	}
}

func TestJournalPersistIsCheapDurabilityPoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Journal: JournalOptions{Enable: true}}) // SyncOnFlush
	if err != nil {
		t.Fatal(err)
	}
	// A base rewrite of 16 records, then 8 appends: the file stays under
	// twice the size of its last rewrite.
	for i := uint64(1); i <= 16; i++ {
		db.Merge(verdictDelta(i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(17); i <= 24; i++ {
		db.Append(verdictDelta(i))
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Flushes != 1 {
		t.Fatalf("Persist rewrote the store (%d flushes); want an fsync only", st.Flushes)
	}
	if st.JournalSyncs == 0 {
		t.Fatal("Persist did not sync the appended lines")
	}
	db.Abandon()
	got := verdictSet(t, dir)
	if k := assertPrefix(t, got); k != 24 {
		t.Fatalf("recovered %d/24 records committed by Persist", k)
	}
}

func TestJournalPersistEscalatesWhenOversized(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Journal: JournalOptions{Enable: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		db.Merge(verdictDelta(i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	base := db.Stats().BytesOnDisk
	for i := uint64(5); i <= 30; i++ {
		db.Append(verdictDelta(i))
	}
	if size := db.Stats().BytesOnDisk; size <= 2*base {
		t.Fatalf("appends grew the file to %d bytes, not past twice the %d-byte rewrite", size, base)
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Flushes != 2 {
		t.Fatalf("Persist did not escalate to a rewrite past twice the last one (%d flushes)", st.Flushes)
	}
	if _, raw := storeFile(t, dir); int64(len(raw)) != st.BytesOnDisk || bytes.Count(raw, []byte("\n")) != 1+30 {
		t.Fatalf("escalated Persist left %d bytes (stats say %d), want header + 30 lines", len(raw), st.BytesOnDisk)
	}
}

// TestChaosJournalDegradesToSnapshotOnly joins the chaos tier: persistent
// injected append failures must flip the store to rewrite-only mode
// without ever surfacing an error to the caller, and the records must
// still reach disk via the next Flush.
func TestChaosJournalDegradesToSnapshotOnly(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	db, err := Open(dir, Options{Journal: JournalOptions{Enable: true, Sync: SyncEveryRecord}})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.JournalAppend, faultinject.Spec{Count: -1})
	for i := uint64(1); i <= 10; i++ {
		db.Append(verdictDelta(i)) // must not panic, must not error
	}
	if st := db.Stats(); !st.JournalDegraded {
		t.Fatalf("appends not degraded after persistent failures: %+v", st)
	}
	faultinject.Reset()
	// Rewrite-only mode still persists everything through Flush.
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("degraded Persist did not fall back to a rewrite")
	}
	db.Append(verdictDelta(11))
	if st := db.Stats(); st.JournalAppends != 0 {
		t.Fatalf("a degraded store appended %d records after its rewrite", st.JournalAppends)
	}
	got := verdictSet(t, dir)
	if k := assertPrefix(t, got); k != 10 {
		t.Fatalf("recovered %d/10 records in degraded mode", k)
	}
}

// TestChaosJournalSyncFailureFallsBack: a failed Persist-time fsync must
// escalate to the rewrite, so the durability point still holds.
func TestChaosJournalSyncFailureFallsBack(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	db, err := Open(dir, Options{Journal: JournalOptions{Enable: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		db.Append(verdictDelta(i))
	}
	faultinject.Arm(faultinject.JournalSync, faultinject.Spec{})
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("Persist with a failed sync did not fall back to Flush")
	}
	db.Abandon()
	got := verdictSet(t, dir)
	if k := assertPrefix(t, got); k != 4 {
		t.Fatalf("recovered %d/4 records after sync-failure fallback", k)
	}
}

// TestJournalReplayIntoJournalingStore: a store reopened over an abandoned
// one keeps appending to the same file after the recovered lines.
func TestJournalReplayIntoJournalingStore(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Journal: JournalOptions{Enable: true, Sync: SyncEveryRecord}}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 6; i++ {
		db.Append(verdictDelta(i))
	}
	db.Abandon()

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(7); i <= 12; i++ {
		db2.Append(verdictDelta(i))
	}
	db2.Abandon()

	got := verdictSet(t, dir)
	if k := assertPrefix(t, got); k != 12 {
		t.Fatalf("recovered %d/12 records across two appending generations", k)
	}
	assertOnlyStoreFile(t, dir)
}

func TestJournalDisabledReaderStillRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Journal: JournalOptions{Enable: true, Sync: SyncEveryRecord}})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		db.Append(verdictDelta(i))
	}
	db.Abandon()

	// A reader with appends off loads the appended lines; its deltas stay
	// in memory until its Close rewrites the file.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Snapshot().Len(); got != 5 {
		t.Fatalf("disabled reader loaded %d records, want 5", got)
	}
	_, before := storeFile(t, dir)
	db2.Append(verdictDelta(6))
	if _, after := storeFile(t, dir); len(after) != len(before) {
		t.Fatal("a store with appends off wrote a delta before Flush")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	got := verdictSet(t, dir)
	if k := assertPrefix(t, got); k != 6 {
		t.Fatalf("post-rewrite state lost records: %d/6", k)
	}
}

// TestJournalHeaderMismatchDropsSegment: an appending store that opens a
// version-mismatched proof.db next to a leftover segment replays neither,
// removes the segment, and replaces the file under the current header, so
// its own appends recover.
func TestJournalHeaderMismatchDropsSegment(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	path, raw := storeFile(t, dir)
	if err := os.WriteFile(path, append([]byte("HHPDB v999\n"), raw[len(header())+1:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "journal-0000000000000001.wal")
	if err := os.WriteFile(seg, []byte("HHWAL v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, Options{Journal: JournalOptions{Enable: true, Sync: SyncEveryRecord}})
	if err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); !st.HeaderRejected || db.Snapshot().Len() != 0 {
		t.Fatalf("version-mismatched file loaded: %+v", st)
	}
	for i := uint64(1); i <= 3; i++ {
		db.Append(verdictDelta(i))
	}
	db.Abandon()
	assertOnlyStoreFile(t, dir)
	if k := assertPrefix(t, verdictSet(t, dir)); k != 3 {
		t.Fatalf("recovered %d/3 records appended after the header was replaced", k)
	}
}

// TestStoreDirectoryHoldsOnlyProofDB: whatever sequence of operations runs,
// the store directory holds proof.db alone — no segment, no temp file.
func TestStoreDirectoryHoldsOnlyProofDB(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncOnFlush, SyncEveryRecord} {
		dir := t.TempDir()
		opts := Options{Journal: JournalOptions{Enable: true, Sync: sync}}
		db := mustOpen(t, dir, opts)
		assertOnlyStoreFile(t, dir)
		steps := []func(db *DB) error{
			func(db *DB) error { db.Append(verdictDelta(1)); return nil },
			(*DB).Persist,
			func(db *DB) error { db.Append(verdictDelta(2)); return nil },
			(*DB).Flush,
			func(db *DB) error { db.Append(verdictDelta(3)); return nil },
			(*DB).Persist,
		}
		for i, step := range steps {
			if err := step(db); err != nil {
				t.Fatal(err)
			}
			if i%2 == 1 {
				assertOnlyStoreFile(t, dir)
			}
		}
		db.Abandon()
		assertOnlyStoreFile(t, dir)
		db = mustOpen(t, dir, opts)
		db.Append(verdictDelta(4))
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		assertOnlyStoreFile(t, dir)
		if k := assertPrefix(t, verdictSet(t, dir)); k != 4 {
			t.Fatalf("recovered %d/4 records", k)
		}
	}
}
