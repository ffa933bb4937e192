package hhoudini

// Persistence wiring: binds VerifyCaches to an on-disk proof store
// (internal/proofdb) so separate process invocations share warm starts.
// The soundness argument is unchanged from the in-memory cache: records
// are keyed by (cone fingerprint, EnvKey), so a restored verdict or abduct
// is only ever consulted for a cone with the identical structural and
// environmental identity it was derived under.

import (
	"path/filepath"
	"sync"

	"hhoudini/internal/proofdb"
)

// ProofDBConfig configures a persistent proof-store binding.
type ProofDBConfig struct {
	// Store tunes the on-disk side (staleness bound, byte budget, clock,
	// appends).
	Store proofdb.Options
}

// ProofDB binds an open proof store to one or more VerifyCaches: opening
// restores the store's memos into the cache, and every Flush merges the
// caches' current contents back and atomically rewrites the file.
type ProofDB struct {
	db *proofdb.DB

	mu       sync.Mutex
	attached []*VerifyCache
	seen     map[*VerifyCache]bool
	closed   bool
	// flushErr is the outcome of the most recent Flush or Persist (hhlint's
	// flusherr pass rejects silently dropped flush errors; Learn's shutdown
	// path cannot propagate, so it records here and LastFlushErr exposes
	// it). A later successful flush clears it.
	flushErr error
	// unhooks removes the delta sinks this binding registered on attached
	// caches. Caches can outlive the binding (the shared in-process cache is
	// process-global), so a closed ProofDB must stop receiving their deltas.
	unhooks []func()
}

// OpenProofDB opens (creating if needed) the proof store in dir, restores
// its contents into vc (when non-nil), and returns the binding. Data-level
// corruption — torn records, bit flips, a version-mismatched file — is
// never an error; the store just loads colder (see proofdb.Stats). Errors
// are environmental (unwritable directory).
func OpenProofDB(dir string, vc *VerifyCache, cfg ProofDBConfig) (*ProofDB, error) {
	db, err := proofdb.Open(dir, cfg.Store)
	if err != nil {
		return nil, err
	}
	p := &ProofDB{db: db, seen: make(map[*VerifyCache]bool)}
	if vc != nil {
		p.Attach(vc)
	}
	return p, nil
}

// Attach restores the store's memos into vc, registers it as a flush
// source, and subscribes to its deltas: every new verdict or abduct is
// appended to the store file as it lands, so the crash-loss window is the
// sync policy's, not the time since the last rewrite. Idempotent per cache.
func (p *ProofDB) Attach(vc *VerifyCache) {
	if vc == nil {
		return
	}
	p.mu.Lock()
	if p.closed || p.seen[vc] {
		p.mu.Unlock()
		return
	}
	p.seen[vc] = true
	p.attached = append(p.attached, vc)
	p.unhooks = append(p.unhooks, vc.addDeltaSink(p.appendDelta))
	p.mu.Unlock()
	// Restore outside p.mu: Snapshot and Restore take their own locks.
	// Restores never re-emit into sinks, so this cannot echo the store's
	// own contents back into the file.
	vc.Restore(p.db.Snapshot())
}

// appendDelta is the registered delta sink: it merges the delta into the
// store's memory image and appends it to the file. proofdb.Append never
// errors — on persistent I/O failure the store degrades to rewrite-only
// mode and the delta still lands in memory for the next Flush.
func (p *ProofDB) appendDelta(s *proofdb.Snapshot) { p.db.Append(s) }

// Flush merges the contents of every attached cache into the store and
// atomically rewrites the file (crash-safe: temp file + fsync + rename).
// The outcome is also recorded for LastFlushErr, so callers that cannot
// propagate (Learn's shutdown path) still leave the failure observable.
func (p *ProofDB) Flush() error {
	p.mu.Lock()
	caches := append([]*VerifyCache(nil), p.attached...)
	p.mu.Unlock()
	for _, vc := range caches {
		p.db.Merge(vc.SnapshotData())
		vc.noteDiskFlush()
	}
	err := p.db.Flush()
	p.mu.Lock()
	p.flushErr = err
	p.mu.Unlock()
	return err
}

// Persist is the cheap durability point: it fsyncs the store file's
// appended lines instead of rewriting it. Because attached caches stream
// their deltas into the file as they land (see Attach), everything derived
// so far is already in the store's memory image and on disk — Persist only
// has to make the bytes durable. When appends are off or degraded, or have
// doubled the file since its last rewrite, the store escalates to a full
// Flush on its own. The outcome is recorded for LastFlushErr like any flush.
func (p *ProofDB) Persist() error {
	p.mu.Lock()
	caches := append([]*VerifyCache(nil), p.attached...)
	p.mu.Unlock()
	err := p.db.Persist()
	if err == nil {
		for _, vc := range caches {
			vc.noteDiskFlush()
		}
	}
	p.mu.Lock()
	p.flushErr = err
	p.mu.Unlock()
	return err
}

// LastFlushErr reports the outcome of the most recent Flush or Persist
// (Learn shutdown, explicit calls) — nil when none has failed since the
// last success. Close remains the authoritative durability point.
func (p *ProofDB) LastFlushErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushErr
}

// Stats returns the underlying store's counters.
func (p *ProofDB) Stats() proofdb.Stats { return p.db.Stats() }

// Path returns the store file path.
func (p *ProofDB) Path() string { return p.db.Path() }

// Close performs a final flush and marks the binding closed. Safe to call
// more than once.
func (p *ProofDB) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	unhooks := p.unhooks
	p.unhooks = nil
	p.mu.Unlock()
	for _, unhook := range unhooks {
		unhook()
	}
	err := p.Flush()
	if cerr := p.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// abandon drops the binding without flushing anything: sinks are unhooked
// and the store is abandoned (append handle closed without a final sync).
// Crash-simulation only — recovery then sees exactly what a kill -9 would
// have left.
func (p *ProofDB) abandon() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	unhooks := p.unhooks
	p.unhooks = nil
	p.mu.Unlock()
	for _, unhook := range unhooks {
		unhook()
	}
	p.db.Abandon()
}

// --- Options.CacheDir registry ----------------------------------------------
//
// Learners configured with Options.CacheDir share one ProofDB per directory
// for the life of the process: the first learner to name a directory opens
// (and loads) the store; every learner's cache is attached on construction;
// Learn flushes at shutdown. CloseProofDBs is the process-exit hook.

var proofDBReg = struct {
	sync.Mutex
	open map[string]*ProofDB
}{open: make(map[string]*ProofDB)}

// defaultJournal is the append configuration CacheDir-bound stores open
// with. Appends are on by default (SyncOnFlush: bounded loss, no fsync per
// record); SetDefaultJournal lets an embedding daemon pick the policy
// before the first learner binds a store.
var defaultJournal = struct {
	sync.Mutex
	opts proofdb.JournalOptions
}{opts: proofdb.JournalOptions{Enable: true}}

// SetDefaultJournal sets the append options used by stores bound through
// Options.CacheDir. It affects stores opened after the call; already-open
// bindings keep their policy.
func SetDefaultJournal(opts proofdb.JournalOptions) {
	defaultJournal.Lock()
	defaultJournal.opts = opts
	defaultJournal.Unlock()
}

// boundProofDB returns the process-wide ProofDB for dir (opening it on
// first use) with vc attached. Failures degrade to nil — the learner then
// runs with a purely in-memory cache, which is the documented cold-start
// behaviour for unusable stores.
func boundProofDB(dir string, vc *VerifyCache) *ProofDB {
	key := dir
	if abs, err := filepath.Abs(dir); err == nil {
		key = abs
	}
	proofDBReg.Lock()
	p := proofDBReg.open[key]
	if p == nil {
		defaultJournal.Lock()
		cfg := ProofDBConfig{Store: proofdb.Options{Journal: defaultJournal.opts}}
		defaultJournal.Unlock()
		var err error
		p, err = OpenProofDB(dir, nil, cfg)
		if err != nil {
			proofDBReg.Unlock()
			return nil
		}
		proofDBReg.open[key] = p
	}
	proofDBReg.Unlock()
	p.Attach(vc)
	return p
}

// ProofDBStatsFor reports the live store counters for the CacheDir-bound
// ProofDB at dir, if one is open in this process. Serving daemons use it to
// surface append health without holding their own store reference.
func ProofDBStatsFor(dir string) (proofdb.Stats, bool) {
	key := dir
	if abs, err := filepath.Abs(dir); err == nil {
		key = abs
	}
	proofDBReg.Lock()
	p := proofDBReg.open[key]
	proofDBReg.Unlock()
	if p == nil {
		return proofdb.Stats{}, false
	}
	return p.Stats(), true
}

// CloseProofDBs flushes and closes every proof store opened through
// Options.CacheDir and empties the registry (so a later Learner re-opens —
// and re-reads — the file). It returns the first error encountered.
// Explicitly opened ProofDBs (OpenProofDB) are not affected.
func CloseProofDBs() error {
	proofDBReg.Lock()
	open := proofDBReg.open
	proofDBReg.open = make(map[string]*ProofDB)
	proofDBReg.Unlock()
	var first error
	for _, p := range open {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CrashProofDBs simulates a process kill for every CacheDir-bound store:
// the registry is emptied and each binding is abandoned WITHOUT a final
// flush or final sync — on-disk state is left exactly as a kill -9 would
// have left it. Test harnesses use this to measure the appends' real loss
// window end-to-end (a clean Close would flush and hide it).
func CrashProofDBs() {
	proofDBReg.Lock()
	open := proofDBReg.open
	proofDBReg.open = make(map[string]*ProofDB)
	proofDBReg.Unlock()
	for _, p := range open {
		p.abandon()
	}
}
