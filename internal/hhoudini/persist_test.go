package hhoudini

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hhoudini/internal/faultinject"
	"hhoudini/internal/proofdb"
)

// learnOnce runs one Learn of the backtracking scenario under opts and
// returns the learner (for stats) and the invariant.
func learnOnce(t *testing.T, opts Options) (*Learner, *Invariant) {
	t.Helper()
	sys, universe, target := backtrackSystem(t)
	l := NewLearner(sys, minerOf(universe...), opts)
	inv, err := l.Learn([]Pred{target})
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil {
		t.Fatal("expected an invariant")
	}
	if err := Audit(sys, inv); err != nil {
		t.Fatal(err)
	}
	return l, inv
}

// TestSnapshotRestoreRoundTrip: the records a bound cache appends to its
// store restore into a fresh cache that then answers every query of a
// repeat Learn from them.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cache := NewVerifyCache()
	db := boundProofDB(t.TempDir(), cache)
	if db == nil {
		t.Fatal("store did not open")
	}
	defer CloseProofDBs()
	learnOnce(t, warmOptions(cache))

	snap := db.Snapshot()
	if snap.Len() == 0 {
		t.Fatal("Learn populated nothing durable")
	}

	fresh := NewVerifyCache()
	verdicts := fresh.Restore(snap)
	if verdicts == 0 || verdicts > snap.Len() {
		t.Fatalf("Restore admitted %d records, snapshot had %d", verdicts, snap.Len())
	}
	if fresh.Len() != cache.Len() {
		t.Fatalf("Len: restored %d, original %d", fresh.Len(), cache.Len())
	}
	if c := fresh.Counters(); c.DiskVerdictsLoaded != int64(verdicts) {
		t.Fatalf("disk-load counter %d, want %d", c.DiskVerdictsLoaded, verdicts)
	}

	// Restore is idempotent: everything is already present.
	if again := fresh.Restore(snap); again != 0 {
		t.Fatalf("second Restore admitted %d records", again)
	}
	l, _ := learnOnce(t, warmOptions(fresh))
	if s := l.Stats(); s.Queries == 0 || s.CacheDiskHits != s.Queries || s.SolverAllocs != 0 {
		t.Fatalf("restored cache answered %d of %d queries and built %d solvers", s.CacheDiskHits, s.Queries, s.SolverAllocs)
	}
}

func TestLenBytesIntrospection(t *testing.T) {
	cache := NewVerifyCache()
	if cache.Len() != 0 || cache.Bytes() != 0 {
		t.Fatalf("empty cache reports Len=%d Bytes=%d", cache.Len(), cache.Bytes())
	}
	learnOnce(t, warmOptions(cache))
	if cache.Len() == 0 {
		t.Fatal("Len = 0 after a Learn")
	}
	if cache.Bytes() <= 0 {
		t.Fatal("Bytes <= 0 after a Learn")
	}
	c := cache.Counters()
	if c.Entries != int64(cache.Len()) || c.ApproxBytes != cache.Bytes() {
		t.Fatalf("Counters entries/bytes %d/%d disagree with Len/Bytes %d/%d",
			c.Entries, c.ApproxBytes, cache.Len(), cache.Bytes())
	}
}

// TestProofDBWarmProcessRestart is the core persistence property at the
// library level: a second "process" (fresh VerifyCache, same directory)
// must answer >= 90% of its abduction queries from restored memos.
func TestProofDBWarmProcessRestart(t *testing.T) {
	dir := t.TempDir()

	// Process 1: cold store, populate, close (CloseProofDBs stands in for
	// process exit).
	cache1 := NewVerifyCache()
	if boundProofDB(dir, cache1) == nil {
		t.Fatal("store did not open")
	}
	_, inv1 := learnOnce(t, warmOptions(cache1))
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}

	// Process 2: brand-new cache restored from the same directory.
	cache2 := NewVerifyCache()
	p2 := boundProofDB(dir, cache2)
	if p2 == nil {
		t.Fatal("store did not reopen")
	}
	defer CloseProofDBs()
	st := p2.Stats()
	if st.VerdictsLoaded+st.AbductsLoaded == 0 {
		t.Fatal("warm process restored nothing from disk")
	}
	l2, inv2 := learnOnce(t, warmOptions(cache2))
	if !reflect.DeepEqual(ids(inv1), ids(inv2)) {
		t.Fatalf("warm process learned a different invariant: %v vs %v", ids(inv2), ids(inv1))
	}
	s := l2.Stats()
	if s.Queries == 0 {
		t.Fatal("warm process made no queries; test is vacuous")
	}
	if s.CacheDiskHits < (s.Queries*9+9)/10 {
		t.Fatalf("disk hits %d / queries %d: below the 90%% warm-start bar",
			s.CacheDiskHits, s.Queries)
	}
	if cache2.Counters().DiskVerdictHits == 0 {
		t.Fatal("cache counters saw no disk-restored verdict hits")
	}
}

// TestOptionsCacheDirWarmRestart exercises the Options.CacheDir wiring end
// to end: learners bound to a directory flush at Learn shutdown, and after
// CloseProofDBs a fresh cache in the same directory starts warm.
func TestOptionsCacheDirWarmRestart(t *testing.T) {
	dir := t.TempDir()

	o1 := warmOptions(NewVerifyCache())
	o1.CacheDir = dir
	l1, inv1 := learnOnce(t, o1)
	if l1.Stats().CacheDiskFlushes == 0 {
		t.Fatal("Learn shutdown did not flush the proof store")
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, proofdb.FileName)); err != nil {
		t.Fatalf("store file missing after CloseProofDBs: %v", err)
	}

	o2 := warmOptions(NewVerifyCache())
	o2.CacheDir = dir
	l2, inv2 := learnOnce(t, o2)
	defer CloseProofDBs()
	if !reflect.DeepEqual(ids(inv1), ids(inv2)) {
		t.Fatalf("warm restart learned a different invariant: %v vs %v", ids(inv2), ids(inv1))
	}
	s := l2.Stats()
	if s.CacheDiskLoads == 0 {
		t.Fatal("warm restart loaded nothing from disk")
	}
	if s.Queries == 0 || s.CacheDiskHits < (s.Queries*9+9)/10 {
		t.Fatalf("disk hits %d / queries %d: below the 90%% warm-start bar",
			s.CacheDiskHits, s.Queries)
	}
}

// TestCacheDirStoreWithClauseRecords: stores written while learnt clauses
// still crossed runs carry `clause` records under the same keys as their
// memos, and may have a write-ahead segment beside proof.db. Such a store
// must bind through CacheDir without a skipped record, lose the segment,
// and warm a repeat run from its verdict and abduct records.
func TestCacheDirStoreWithClauseRecords(t *testing.T) {
	dir := t.TempDir()
	o1 := warmOptions(NewVerifyCache())
	o1.CacheDir = dir
	_, inv1 := learnOnce(t, o1)
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}

	// Add clause lines and a segment the way the older writer laid them out.
	db, err := proofdb.Open(dir, proofdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, proofdb.FileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kr := range db.Snapshot().Keys {
		payload := fmt.Sprintf(`{"t":"clause","k":%q,"at":%d,"l":[{"n":"n:7"},{"n":"r:B:0","g":true}]}`,
			kr.Key, time.Now().Unix())
		fmt.Fprintf(f, "%08x\t%s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "journal-0000000000000001.wal")
	if err := os.WriteFile(seg, []byte("HHWAL v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	o2 := warmOptions(NewVerifyCache())
	o2.CacheDir = dir
	l2, inv2 := learnOnce(t, o2)
	defer CloseProofDBs()
	if !reflect.DeepEqual(ids(inv1), ids(inv2)) {
		t.Fatalf("warm restart learned a different invariant: %v vs %v", ids(inv2), ids(inv1))
	}
	st, ok := ProofDBStatsFor(dir)
	if !ok {
		t.Fatal("no registry entry for the CacheDir store")
	}
	if st.ClausesLoaded != 0 || st.JournalReplayed == 0 {
		t.Fatalf("store loaded %d clauses and replayed %d records; want 0 and > 0",
			st.ClausesLoaded, st.JournalReplayed)
	}
	if st.CorruptSkipped != 0 || st.HeaderRejected {
		t.Fatalf("clause records read as corruption: %+v", st)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("leftover segment not removed (stat err=%v)", err)
	}
	s := l2.Stats()
	if s.Queries == 0 || s.CacheDiskHits < (s.Queries*9+9)/10 {
		t.Fatalf("disk hits %d / queries %d: below the 90%% warm-start bar",
			s.CacheDiskHits, s.Queries)
	}
}

// TestCacheDirCorruptStoreColdStart: a mangled store file must never fail a
// Learn — it degrades to a cold start and is rewritten at shutdown.
func TestCacheDirCorruptStoreColdStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, proofdb.FileName)
	if err := os.WriteFile(path, []byte("\x00\xffnot a proof store at all\n\x01\x02"), 0o644); err != nil {
		t.Fatal(err)
	}

	o := warmOptions(NewVerifyCache())
	o.CacheDir = dir
	l, _ := learnOnce(t, o)
	if l.Stats().CacheDiskHits != 0 {
		t.Fatal("corrupt store somehow produced disk hits")
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}

	// The shutdown flush replaced the garbage with a valid store.
	db, err := proofdb.Open(dir, proofdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Snapshot().Len() == 0 {
		t.Fatal("store not repopulated after the corrupt cold start")
	}
	if db.Stats().HeaderRejected || db.Stats().CorruptSkipped != 0 {
		t.Fatalf("rewritten store still unreadable: %+v", db.Stats())
	}
}

// TestCacheDirUnusableDirectoryDegrades: when the cache directory cannot be
// created (a file occupies the path), the learner silently runs with the
// in-memory cache only.
func TestCacheDirUnusableDirectoryDegrades(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := warmOptions(NewVerifyCache())
	o.CacheDir = blocker // MkdirAll over a regular file fails
	l, _ := learnOnce(t, o)
	if l.pdb != nil {
		t.Fatal("learner bound a proof store under an unusable path")
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSnapshotWhileLearn hammers the bound store's Snapshot and
// Restore/Len/Bytes from a background goroutine while a multi-worker Learn
// appends to the store and mutates the same cache — the -race tier for the
// persistence read path.
func TestConcurrentSnapshotWhileLearn(t *testing.T) {
	cache := NewVerifyCache()
	db := boundProofDB(t.TempDir(), cache)
	if db == nil {
		t.Fatal("store did not open")
	}
	defer CloseProofDBs()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		scratch := NewVerifyCache()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := db.Snapshot()
			scratch.Restore(snap)
			_ = cache.Len()
			_ = cache.Bytes()
			_ = cache.Counters()
		}
	}()
	o := warmOptions(cache)
	o.Workers = 4
	for i := 0; i < 3; i++ {
		learnOnce(t, o)
	}
	close(stop)
	<-done
}

// TestConcurrentAttachFlushLastErr races Persist against explicit Flush
// calls, late binds of fresh caches, and LastErr polls: the store's lock
// discipline must hold under the race detector, and a healthy store must
// never report a flush error.
func TestConcurrentAttachFlushLastErr(t *testing.T) {
	dir := t.TempDir()
	cache := NewVerifyCache()
	p := boundProofDB(dir, cache) // appends on: the default journal policy
	if p == nil {
		t.Fatal("store did not open")
	}
	learnOnce(t, warmOptions(cache))

	persisted := make(chan struct{})
	go func() {
		defer close(persisted)
		for i := 0; i < 30; i++ {
			if err := p.Persist(); err != nil {
				t.Errorf("Persist: %v", err)
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			late := NewVerifyCache()
			boundProofDB(dir, late)
			if err := p.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
			}
			_ = p.Stats()
		}
	}()
	for i := 0; i < 100; i++ {
		if err := p.LastErr(); err != nil {
			t.Errorf("LastErr on a healthy store: %v", err)
		}
	}
	<-done
	<-persisted
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	db, err := proofdb.Open(dir, proofdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Snapshot().Len() == 0 {
		t.Fatal("nothing persisted")
	}
}

// TestProofDBCloseRewritesOnce: closing a binding merges its caches and
// rewrites the store file exactly once, and what it wrote reloads.
func TestProofDBCloseRewritesOnce(t *testing.T) {
	dir := t.TempDir()
	cache := NewVerifyCache()
	p := boundProofDB(dir, cache)
	if p == nil {
		t.Fatal("store did not open")
	}
	defer CloseProofDBs()
	learnOnce(t, warmOptions(cache))
	before := p.Stats().Flushes
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Flushes - before; got != 1 {
		t.Fatalf("one Close rewrote the store %d times, want 1", got)
	}
	if err := p.LastErr(); err != nil {
		t.Fatalf("LastErr after a clean Close = %v", err)
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}
	st := boundProofDB(dir, NewVerifyCache()).Stats()
	if st.VerdictsLoaded+st.AbductsLoaded == 0 {
		t.Fatal("the store Close wrote reloads empty")
	}
}

// TestMaxAgeEvictsRecordsNoQueryUsed: a store's MaxAge counts from a
// record's last use. Three records are written on day 0; on day 13 a fresh
// cache is bound to the store, one query hits one restored record, and the
// store is closed. On day 27, under a 14-day MaxAge, only the record hit on
// day 13 loads: binding and closing do not refresh what no query used.
func TestMaxAgeEvictsRecordsNoQueryUsed(t *testing.T) {
	dir := t.TempDir()
	day0 := time.Unix(1_700_000_000, 0)
	open := func(day int) *proofdb.DB {
		t.Helper()
		now := day0.Add(time.Duration(day) * 24 * time.Hour)
		db, err := proofdb.Open(dir, proofdb.Options{MaxAge: 14 * 24 * time.Hour, Now: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	tA, tB, tC := regEq{reg: "T", val: 1}, regEq{reg: "U", val: 1}, regEq{reg: "V", val: 1}

	db := open(0)
	cache := NewVerifyCache()
	cache.bind(db)
	cache.store("k", tA, regs("A B"), abductResult{preds: regs("A"), ok: true})
	cache.store("k", tB, regs("A B"), abductResult{preds: regs("B"), ok: true})
	cache.store("k", tC, regs("C"), abductResult{ok: false})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open(13)
	cache = NewVerifyCache()
	cache.bind(db)
	if res, fromDisk, ok := cache.lookup("k", tA, regs("A C")); !ok || !fromDisk || answer(res, ok) != "A" {
		t.Fatalf("day-13 query answered %q (fromDisk=%v), want the restored abduct A", answer(res, ok), fromDisk)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open(27)
	snap := db.Snapshot()
	if snap.Len() != 1 || len(snap.Keys[0].Abducts) != 1 || snap.Keys[0].Abducts[0].Target != tA.ID() {
		t.Fatalf("day 27 loaded %+v, want only the abduct of %s", snap.Keys, tA.ID())
	}
	if got := db.Stats().ExpiredSkipped; got != 2 {
		t.Fatalf("ExpiredSkipped = %d, want the 2 records no query used since day 0", got)
	}
}

// TestBoundProofDBRegistry: one store per directory per process, shared
// by every learner that names it.
func TestBoundProofDBRegistry(t *testing.T) {
	dir := t.TempDir()
	p1 := boundProofDB(dir, NewVerifyCache())
	p2 := boundProofDB(dir, NewVerifyCache())
	if p1 == nil || p1 != p2 {
		t.Fatalf("registry did not share: %p vs %p", p1, p2)
	}
	other := boundProofDB(t.TempDir(), NewVerifyCache())
	if other == p1 {
		t.Fatal("distinct directories share a store")
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}
	p3 := boundProofDB(dir, NewVerifyCache())
	if p3 == nil {
		t.Fatal("reopen after CloseProofDBs failed")
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCrashWarmRestart proves the append path end to end at the
// library level: a CacheDir-bound learner streams its deltas into proof.db
// as they land and Learn's shutdown Persist makes them durable. A simulated
// kill -9 (CrashProofDBs: abandon without a final flush or sync) must
// therefore lose nothing: a fresh cache bound to the same directory
// warm-starts from what is on disk, and proof.db is the only file there.
func TestJournalCrashWarmRestart(t *testing.T) {
	dir := t.TempDir()

	o1 := warmOptions(NewVerifyCache())
	o1.CacheDir = dir
	_, inv1 := learnOnce(t, o1)
	CrashProofDBs()

	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != proofdb.FileName {
		t.Fatalf("store directory after the crash: %v (err=%v), want proof.db alone", entries, err)
	}

	o2 := warmOptions(NewVerifyCache())
	o2.CacheDir = dir
	l2, inv2 := learnOnce(t, o2)
	defer func() {
		if err := CloseProofDBs(); err != nil {
			t.Error(err)
		}
	}()
	if !reflect.DeepEqual(ids(inv1), ids(inv2)) {
		t.Fatalf("crash-recovered process learned a different invariant: %v vs %v",
			ids(inv2), ids(inv1))
	}
	if l2.pdb == nil {
		t.Fatal("CacheDir learner has no bound proof store")
	}
	st := l2.pdb.Stats()
	if st.JournalReplayed == 0 {
		t.Fatal("recovery applied no records")
	}
	s := l2.Stats()
	if s.Queries == 0 {
		t.Fatal("recovered process made no queries; test is vacuous")
	}
	if s.CacheDiskHits < (s.Queries*9+9)/10 {
		t.Fatalf("disk hits %d / queries %d: below the 90%% warm-start bar after crash",
			s.CacheDiskHits, s.Queries)
	}
}

// TestJournalDegradedLearnerStillSucceeds: persistent journal I/O failure
// must never fail the learner — the store degrades to snapshot-only mode
// and the final Close still makes everything durable.
func TestJournalDegradedLearnerStillSucceeds(t *testing.T) {
	dir := t.TempDir()
	injected := fmt.Errorf("chaos: journal disk gone")
	faultinject.Arm(faultinject.JournalAppend, faultinject.Spec{Count: -1, Err: injected})
	defer faultinject.Reset()

	o1 := warmOptions(NewVerifyCache())
	o1.CacheDir = dir
	_, inv1 := learnOnce(t, o1)
	if l := len(ids(inv1)); l == 0 {
		t.Fatal("degraded-journal learner found no invariant")
	}
	st, ok := ProofDBStatsFor(dir)
	if !ok {
		t.Fatal("no registry entry for the CacheDir store")
	}
	if !st.JournalDegraded {
		t.Fatal("persistent append failure did not degrade the journal")
	}
	if err := CloseProofDBs(); err != nil {
		t.Fatalf("snapshot-only close failed: %v", err)
	}

	faultinject.Reset()
	o2 := warmOptions(NewVerifyCache())
	o2.CacheDir = dir
	l2, _ := learnOnce(t, o2)
	defer func() {
		if err := CloseProofDBs(); err != nil {
			t.Error(err)
		}
	}()
	if l2.Stats().CacheDiskLoads == 0 {
		t.Fatal("snapshot written by the degraded store restored nothing")
	}
}

// TestVerdictRecordStoreWarmsFromAbducts opens a store laid out the way
// engines with the hashed exact-verdict memo wrote it: every cone abduct
// beside a `verdict` line carrying the same answer. The store opens without
// a skipped record, the cache restores the abducts alone, and a repeat of
// the all-Unsat AND-gate verification builds no solver.
func TestVerdictRecordStoreWarmsFromAbducts(t *testing.T) {
	universe := regs("A B C D E")
	learn := func(cache *VerifyCache) (*Learner, *Invariant) {
		t.Helper()
		l := NewLearner(andGateSystem(t), minerOf(universe...), warmOptions(cache))
		inv, err := l.Learn(universe[:1])
		if err != nil || inv == nil {
			t.Fatalf("Learn: inv=%v err=%v", inv, err)
		}
		return l, inv
	}
	cold := NewVerifyCache()
	coldDB, err := proofdb.Open(t.TempDir(), proofdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold.bind(coldDB)
	_, inv1 := learn(cold)

	old := coldDB.Snapshot()
	abducts := old.Len()
	for i := range old.Keys {
		kr := &old.Keys[i]
		for j, a := range kr.Abducts {
			kr.Verdicts = append(kr.Verdicts, proofdb.Verdict{A: uint64(j) + 1, B: uint64(i) + 1, OK: true, Preds: a.Preds})
		}
	}
	dir := t.TempDir()
	db, err := proofdb.Open(dir, proofdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append(old)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	warm := NewVerifyCache()
	p := boundProofDB(dir, warm)
	if p == nil {
		t.Fatal("store did not open")
	}
	defer CloseProofDBs()
	st := p.Stats()
	if st.CorruptSkipped != 0 || st.HeaderRejected || st.VerdictsLoaded != int64(abducts) || st.AbductsLoaded != int64(abducts) {
		t.Fatalf("parent-format store loaded as %+v; want %d verdicts and %d abducts, none skipped", st, abducts, abducts)
	}
	if warm.Len() != abducts {
		t.Fatalf("cache restored %d records, want the %d abducts", warm.Len(), abducts)
	}
	l2, inv2 := learn(warm)
	if s := l2.Stats(); s.SolverAllocs != 0 || s.CacheDiskHits != s.Queries {
		t.Fatalf("warm verify built %d solvers, answered %d of %d queries from disk", s.SolverAllocs, s.CacheDiskHits, s.Queries)
	}
	if !reflect.DeepEqual(ids(inv1), ids(inv2)) {
		t.Fatalf("warm invariant %v differs from cold %v", ids(inv2), ids(inv1))
	}
}
