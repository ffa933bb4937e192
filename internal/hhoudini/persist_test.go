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

// TestConcurrentAttachFlushLastErr races Persist against explicit Flush
// calls, late Attach of fresh caches, and LastFlushErr polls: the binding's
// lock discipline must hold under the race detector, and a healthy store
// must never report a flush error.
func TestConcurrentAttachFlushLastErr(t *testing.T) {
	dir := t.TempDir()
	cache := NewVerifyCache()
	p, err := OpenProofDB(dir, cache, ProofDBConfig{Store: proofdb.Options{Journal: proofdb.JournalOptions{Enable: true}}})
	if err != nil {
		t.Fatal(err)
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
	<-persisted
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
