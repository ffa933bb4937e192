package proofdb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testSnapshot is a small fixed snapshot exercised by most tests. It mixes
// verdicts with cone-abduct records — under a cone-level key, as the engine
// writes them — so every corruption, eviction and round-trip test below
// runs against both record types.
func testSnapshot() *Snapshot {
	return &Snapshot{Keys: []KeyRecord{
		{
			Key: "cone:00c0ffee|env0",
			Abducts: []Abduct{
				{Target: "t0", Preds: []string{"p1", "p2"}},
				{Target: "t1"}, // empty abduct: inductive relative to nothing
			},
		},
		{
			Key: "fp0|env0",
			Verdicts: []Verdict{
				{A: 1, B: 2, OK: true, Preds: []string{"p1", "p2"}},
				{A: 3, B: 4, OK: false},
			},
		},
		{
			Key: "fp1|env1",
			Verdicts: []Verdict{
				{A: 9, B: 9, OK: true, Preds: []string{"q"}},
			},
		},
	}}
}

func mustOpen(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{})
	db.Append(testSnapshot())
	want := db.Snapshot() // canonical (fingerprint-sorted) form
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := mustOpen(t, dir, Options{})
	got := db2.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	st := db2.Stats()
	if st.ClausesLoaded != 0 || st.VerdictsLoaded != 3 || st.AbductsLoaded != 2 {
		t.Fatalf("loaded clauses=%d verdicts=%d abducts=%d, want 0/3/2",
			st.ClausesLoaded, st.VerdictsLoaded, st.AbductsLoaded)
	}
	if st.CorruptSkipped != 0 || st.HeaderRejected {
		t.Fatalf("clean store reported corruption: %+v", st)
	}
}

func TestMissingFileIsColdStart(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{})
	if n := db.Snapshot().Len(); n != 0 {
		t.Fatalf("fresh store has %d records", n)
	}
	st := db.Stats()
	if st.HeaderRejected || st.CorruptSkipped != 0 {
		t.Fatalf("fresh store reported corruption: %+v", st)
	}
}

// storeFile returns the store path and its current contents.
func storeFile(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read store: %v", err)
	}
	return path, raw
}

// populate writes the fixed snapshot and closes the store.
func populate(t *testing.T, dir string) {
	t.Helper()
	db := mustOpen(t, dir, Options{})
	db.Append(testSnapshot())
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestTruncatedFileSkipsTornRecord(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	path, raw := storeFile(t, dir)
	// Cut the file mid-way through the final record.
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	db := mustOpen(t, dir, Options{})
	st := db.Stats()
	if st.CorruptSkipped != 1 {
		t.Fatalf("CorruptSkipped = %d, want 1 (the torn tail record)", st.CorruptSkipped)
	}
	if got, want := int64(db.Snapshot().Len()), st.ClausesLoaded+st.VerdictsLoaded+st.AbductsLoaded; got != want {
		t.Fatalf("model has %d records, stats say %d", got, want)
	}
	if db.Snapshot().Len() != testSnapshot().Len()-1 {
		t.Fatalf("loaded %d records, want %d", db.Snapshot().Len(), testSnapshot().Len()-1)
	}
}

func TestFlippedByteFailsCRCAndIsSkipped(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	path, raw := storeFile(t, dir)
	lines := bytes.Split(raw, []byte("\n"))
	// Flip one byte inside the JSON payload of the second record.
	target := lines[2]
	target[len(target)/2] ^= 0x20
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	db := mustOpen(t, dir, Options{})
	st := db.Stats()
	if st.CorruptSkipped != 1 {
		t.Fatalf("CorruptSkipped = %d, want 1 (the flipped record)", st.CorruptSkipped)
	}
	if db.Snapshot().Len() != testSnapshot().Len()-1 {
		t.Fatalf("loaded %d records, want %d", db.Snapshot().Len(), testSnapshot().Len()-1)
	}
}

func TestWrongVersionHeaderRejectsWholeFile(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	path, raw := storeFile(t, dir)
	mutated := bytes.Replace(raw, []byte(header()), []byte("HHPDB v999"), 1)
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	db := mustOpen(t, dir, Options{})
	st := db.Stats()
	if !st.HeaderRejected {
		t.Fatal("HeaderRejected not set for a version-mismatched file")
	}
	if n := db.Snapshot().Len(); n != 0 {
		t.Fatalf("version-mismatched file still loaded %d records", n)
	}
	// The next flush rewrites the file under the current version.
	db.Append(testSnapshot())
	if err := db.Close(); err != nil {
		t.Fatalf("Close after header rejection: %v", err)
	}
	db2 := mustOpen(t, dir, Options{})
	if db2.Snapshot().Len() != testSnapshot().Len() {
		t.Fatal("store not rewritten after header rejection")
	}
}

func TestGarbageFileIsColdStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	if err := os.WriteFile(path, []byte("\x00\x01garbage\xffnot a store\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := mustOpen(t, dir, Options{})
	if !db.Stats().HeaderRejected {
		t.Fatal("garbage header not rejected")
	}
	if n := db.Snapshot().Len(); n != 0 {
		t.Fatalf("garbage file loaded %d records", n)
	}
}

func TestUnknownRecordTypeIsSkippedNotFatal(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	path, raw := storeFile(t, dir)
	// Append a well-formed line of an unknown (future) record type.
	future, err := encodeLine(&record{T: "lemma", Key: "k", At: time.Now().Unix()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, future...), 0o644); err != nil {
		t.Fatal(err)
	}
	db := mustOpen(t, dir, Options{})
	if db.Snapshot().Len() != testSnapshot().Len() {
		t.Fatalf("unknown record type perturbed the load: %d records", db.Snapshot().Len())
	}
	if db.Stats().CorruptSkipped != 1 {
		t.Fatalf("CorruptSkipped = %d, want 1 (the future record)", db.Stats().CorruptSkipped)
	}
}

func TestAgeEvictionAtLoadAndFlush(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	db := mustOpen(t, dir, Options{Now: clock})
	db.Append(testSnapshot())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open beyond MaxAge: everything is expired at load.
	later := now.Add(DefaultMaxAge + time.Hour)
	db2 := mustOpen(t, dir, Options{Now: func() time.Time { return later }})
	if n := db2.Snapshot().Len(); n != 0 {
		t.Fatalf("expired store still loaded %d records", n)
	}
	if got := db2.Stats().ExpiredSkipped; got != int64(testSnapshot().Len()) {
		t.Fatalf("ExpiredSkipped = %d, want %d", got, testSnapshot().Len())
	}

	// Flush-side eviction: records go stale while the DB is open.
	db3 := mustOpen(t, dir, Options{Now: func() time.Time { return later }})
	db3.Append(testSnapshot())
	db3.opts.Now = func() time.Time { return later.Add(DefaultMaxAge + time.Hour) }
	if err := db3.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db3.Stats().AgeEvicted; got != int64(testSnapshot().Len()) {
		t.Fatalf("AgeEvicted = %d, want %d", got, testSnapshot().Len())
	}
	if n := db3.Snapshot().Len(); n != 0 {
		t.Fatalf("flush left %d stale records in the model", n)
	}
}

func TestNegativeMaxAgeDisablesEviction(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	db := mustOpen(t, dir, Options{MaxAge: -1, Now: func() time.Time { return now }})
	db.Append(testSnapshot())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	far := now.Add(100 * DefaultMaxAge)
	db2 := mustOpen(t, dir, Options{MaxAge: -1, Now: func() time.Time { return far }})
	if db2.Snapshot().Len() != testSnapshot().Len() {
		t.Fatal("records evicted despite MaxAge < 0")
	}
}

// TestTouchRefreshesLastUse: a Touch moves a held record's last use to now,
// so it outlives MaxAge counted from its Append; a Touch of a record the
// model does not hold adds nothing.
func TestTouchRefreshesLastUse(t *testing.T) {
	dir := t.TempDir()
	day0 := time.Unix(1_700_000_000, 0)
	at := func(day int) Options {
		now := day0.Add(time.Duration(day) * 24 * time.Hour)
		return Options{Now: func() time.Time { return now }}
	}
	db := mustOpen(t, dir, at(0))
	db.Append(testSnapshot())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, dir, at(10))
	db.Touch("cone:00c0ffee|env0", "t0", false, []string{"p2", "p1"})
	db.Touch("cone:00c0ffee|env0", "t0", true, []string{"p1"}) // not held
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, dir, at(20))
	snap := db.Snapshot()
	if snap.Len() != 1 || len(snap.Keys[0].Abducts) != 1 || snap.Keys[0].Abducts[0].Target != "t0" {
		t.Fatalf("day 20 loaded %+v, want only the touched abduct of t0", snap.Keys)
	}
	if got, want := db.Stats().ExpiredSkipped, int64(testSnapshot().Len()-1); got != want {
		t.Fatalf("ExpiredSkipped = %d, want %d", got, want)
	}
}

// TestCloseIsFinal: Close rewrites once; a second Close, a Flush and an
// Append after it change nothing.
func TestCloseIsFinal(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{Journal: JournalOptions{Enable: true}})
	db.Append(testSnapshot())
	before := db.Stats().Flushes
	for i := 0; i < 2; i++ {
		if err := db.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush after Close: %v", err)
	}
	if got := db.Stats().Flushes - before; got != 1 {
		t.Fatalf("Close, Close and Flush rewrote the store %d times, want 1", got)
	}
	db.Append(&Snapshot{Keys: []KeyRecord{{Key: "late", Abducts: []Abduct{{Target: "t"}}}}})
	if got := db.Snapshot().Len(); got != testSnapshot().Len() {
		t.Fatalf("Append after Close changed the model to %d records", got)
	}
	if got := db.Stats().JournalAppends; got != int64(testSnapshot().Len()) {
		t.Fatalf("Append after Close wrote to the file: %d appends", got)
	}
}

func TestByteBudgetLRUCompaction(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	db := mustOpen(t, dir, Options{Now: func() time.Time { return now }})

	// Old generation of verdicts, then a newer generation; the budget only
	// fits the newer half, so the older half must be LRU-dropped.
	old := &Snapshot{Keys: []KeyRecord{{Key: "k"}}}
	for i, n := range []string{"o1", "o2", "o3", "o4"} {
		old.Keys[0].Verdicts = append(old.Keys[0].Verdicts, Verdict{A: uint64(i + 1), OK: true, Preds: []string{n}})
	}
	db.Append(old)

	db.opts.Now = func() time.Time { return now.Add(time.Hour) }
	fresh := &Snapshot{Keys: []KeyRecord{{Key: "k"}}}
	for i, n := range []string{"n1", "n2", "n3", "n4"} {
		fresh.Keys[0].Verdicts = append(fresh.Keys[0].Verdicts, Verdict{A: uint64(i + 5), OK: true, Preds: []string{n}})
	}
	db.Append(fresh)

	// Budget: header + 4 record lines (every record line here has the same
	// length by construction).
	probe, err := encodeLine(&record{T: recVerdict, Key: "k", At: now.Unix(), A: 1, OK: true, Preds: []string{"o1"}})
	if err != nil {
		t.Fatal(err)
	}
	db.opts.MaxBytes = int64(len(header()) + 1 + 4*len(probe))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.BudgetEvicted != 4 {
		t.Fatalf("BudgetEvicted = %d, want 4", st.BudgetEvicted)
	}
	if st.BytesOnDisk > db.opts.MaxBytes {
		t.Fatalf("BytesOnDisk %d over budget %d", st.BytesOnDisk, db.opts.MaxBytes)
	}

	// The survivors must be exactly the newer generation, in the model and
	// on disk.
	check := func(s *Snapshot, where string) {
		t.Helper()
		var names []string
		for _, kr := range s.Keys {
			for _, v := range kr.Verdicts {
				names = append(names, v.Preds[0])
			}
		}
		if len(names) != 4 {
			t.Fatalf("%s: %d survivors, want 4 (%v)", where, len(names), names)
		}
		for _, n := range names {
			if !strings.HasPrefix(n, "n") {
				t.Fatalf("%s: old record %q survived LRU compaction over %v", where, n, names)
			}
		}
	}
	check(db.Snapshot(), "model")
	db2 := mustOpen(t, dir, Options{Now: func() time.Time { return now.Add(time.Hour) }})
	check(db2.Snapshot(), "disk")
}

func TestFlushLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("flush left temp file %s", e.Name())
		}
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("unexpected cache dir contents: %v", entries)
	}
}

func TestDecodeLineRejectsMalformedFraming(t *testing.T) {
	good, err := encodeLine(&record{T: recVerdict, Key: "k", At: 1, A: 7, B: 8, OK: true})
	if err != nil {
		t.Fatal(err)
	}
	good = bytes.TrimSuffix(good, []byte("\n"))
	if _, ok := decodeLine(good); !ok {
		t.Fatal("well-formed line rejected")
	}
	for name, line := range map[string][]byte{
		"empty":        nil,
		"no tab":       []byte("deadbeef{}"),
		"short crc":    []byte("dead\t{}"),
		"bad hex":      []byte("zzzzzzzz\t{}"),
		"crc mismatch": []byte("00000000\t" + `{"t":"clause","k":"k","at":1,"l":[{"n":"a"}]}`),
		"empty key":    mustLine(t, &record{T: recVerdict, At: 1, A: 1}),
		"no target":    mustLine(t, &record{T: recConeAbduct, Key: "k", At: 1}),
		"empty member": mustLine(t, &record{T: recConeAbduct, Key: "k", At: 1, Preds: []string{"t", ""}}),
	} {
		if _, ok := decodeLine(line); ok {
			t.Errorf("%s: malformed line accepted", name)
		}
	}
}

func mustLine(t *testing.T, r *record) []byte {
	t.Helper()
	line, err := encodeLine(r)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(line, []byte("\n"))
}

func TestConcurrentMergeFlushSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			db.Append(testSnapshot())
			db.Touch("cone:00c0ffee|env0", "t0", false, []string{"p2", "p1"})
			db.Snapshot()
		}
	}()
	for i := 0; i < 20; i++ {
		if err := db.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
		if err := db.LastErr(); err != nil {
			t.Errorf("LastErr: %v", err)
		}
	}
	<-done
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
