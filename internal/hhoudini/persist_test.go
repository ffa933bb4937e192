package hhoudini

import (
	"fmt"
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

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cache := NewVerifyCache()
	learnOnce(t, warmOptions(cache))

	snap := cache.SnapshotData()
	if snap.Len() == 0 {
		t.Fatal("Learn populated nothing durable")
	}

	fresh := NewVerifyCache()
	verdicts := fresh.Restore(snap)
	if verdicts != snap.Len() {
		t.Fatalf("Restore admitted %d records, snapshot had %d", verdicts, snap.Len())
	}
	if got := fresh.SnapshotData(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("restore round trip mismatch:\n got %+v\nwant %+v", got, snap)
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

	// Process 1: cold store, populate, close.
	cache1 := NewVerifyCache()
	p1, err := OpenProofDB(dir, cache1, ProofDBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, inv1 := learnOnce(t, warmOptions(cache1))
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process 2: brand-new cache restored from the same directory.
	cache2 := NewVerifyCache()
	p2, err := OpenProofDB(dir, cache2, ProofDBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
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
// memos — some in the snapshot, some only in journal segments. Such a store
// must bind through CacheDir without a skipped record, warm a repeat run
// from its verdict and abduct records, and hand the cache no clause.
func TestCacheDirStoreWithClauseRecords(t *testing.T) {
	dir := t.TempDir()
	o1 := warmOptions(NewVerifyCache())
	o1.CacheDir = dir
	_, inv1 := learnOnce(t, o1)
	if err := CloseProofDBs(); err != nil {
		t.Fatal(err)
	}

	// Add clause records the way the older writer did: one batch compacted
	// into the snapshot file by a clean close, one left in the journal.
	clausesFor := func(db *proofdb.DB, name string) *proofdb.Snapshot {
		delta := &proofdb.Snapshot{}
		for _, kr := range db.Snapshot().Keys {
			delta.Keys = append(delta.Keys, proofdb.KeyRecord{Key: kr.Key, Clauses: []proofdb.Clause{
				{Lits: []proofdb.Lit{{Name: name}, {Name: "r:B:0", Neg: true}}},
			}})
		}
		return delta
	}
	jopts := proofdb.Options{Journal: proofdb.JournalOptions{Enable: true, Sync: proofdb.SyncEveryRecord}}
	db, err := proofdb.Open(dir, jopts)
	if err != nil {
		t.Fatal(err)
	}
	db.Append(clausesFor(db, "n:7"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = proofdb.Open(dir, jopts); err != nil {
		t.Fatal(err)
	}
	db.Append(clausesFor(db, "n:9"))
	db.Abandon()

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
	if st.ClausesLoaded == 0 || st.JournalReplayed == 0 {
		t.Fatalf("store opened without its clause records (loaded %d, journal replayed %d); test is vacuous",
			st.ClausesLoaded, st.JournalReplayed)
	}
	if st.CorruptSkipped != 0 || st.HeaderRejected {
		t.Fatalf("clause records read as corruption: %+v", st)
	}
	for _, kr := range o2.Cache.SnapshotData().Keys {
		if len(kr.Clauses) != 0 {
			t.Fatalf("cache restored %d clauses under key %q", len(kr.Clauses), kr.Key)
		}
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

// TestConcurrentSnapshotWhileLearn hammers SnapshotData/Restore/Len/Bytes
// from a background goroutine while a multi-worker Learn mutates the same
// cache — the -race tier for the persistence read path.
func TestConcurrentSnapshotWhileLearn(t *testing.T) {
	cache := NewVerifyCache()
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
			snap := cache.SnapshotData()
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

// TestBackgroundFlusher: the interval flusher persists without explicit
// Flush calls and shuts down cleanly on Close.
func TestBackgroundFlusher(t *testing.T) {
	dir := t.TempDir()
	cache := NewVerifyCache()
	p, err := OpenProofDB(dir, cache, ProofDBConfig{FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	learnOnce(t, warmOptions(cache))

	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Flushes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never flushed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Close(); err != nil {
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
		t.Fatal("background flushes persisted nothing")
	}
}

// TestConcurrentAttachFlushLastErr races the background flusher against
// explicit Flush calls, late Attach of fresh caches, and LastFlushErr polls:
// the binding's lock discipline must hold under the race detector, and a
// healthy store must never report a flush error.
func TestConcurrentAttachFlushLastErr(t *testing.T) {
	dir := t.TempDir()
	cache := NewVerifyCache()
	p, err := OpenProofDB(dir, cache, ProofDBConfig{FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	learnOnce(t, warmOptions(cache))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			late := NewVerifyCache()
			p.Attach(late)
			if err := p.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
			}
			_ = p.Stats()
		}
	}()
	for i := 0; i < 100; i++ {
		if err := p.LastFlushErr(); err != nil {
			t.Errorf("LastFlushErr on a healthy store: %v", err)
		}
	}
	<-done
	if err := p.Close(); err != nil {
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

// TestBoundProofDBRegistry: one ProofDB per directory per process, shared
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
		t.Fatal("distinct directories share a ProofDB")
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

// TestJournalCrashWarmRestart proves the write-ahead journal end to end at
// the library level: a CacheDir-bound learner streams its deltas into the
// journal as they land and Learn's shutdown Persist fsyncs them — no
// snapshot flush ever runs. A simulated kill -9 (CrashProofDBs: abandon
// without flushing) must therefore lose nothing: a fresh cache bound to the
// same directory warm-starts from the journal alone.
func TestJournalCrashWarmRestart(t *testing.T) {
	dir := t.TempDir()

	o1 := warmOptions(NewVerifyCache())
	o1.CacheDir = dir
	_, inv1 := learnOnce(t, o1)
	CrashProofDBs()

	if _, err := os.Stat(filepath.Join(dir, "proof.db")); !os.IsNotExist(err) {
		t.Fatalf("no snapshot flush ran, yet proof.db exists (stat err=%v)", err)
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
		t.Fatalf("journal-recovered process learned a different invariant: %v vs %v",
			ids(inv2), ids(inv1))
	}
	if l2.pdb == nil {
		t.Fatal("CacheDir learner has no bound proof store")
	}
	st := l2.pdb.Stats()
	if st.JournalReplayed == 0 {
		t.Fatal("recovery replayed no journal records")
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
