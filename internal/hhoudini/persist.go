package hhoudini

// Persistence wiring: the per-directory registry of on-disk proof stores
// (internal/proofdb) that Options.CacheDir binds caches to, so separate
// process invocations share warm starts. Each layer has one job: the store
// owns the file and the full record image, the VerifyCache owns the bounded
// working set and appends each record it derives once (VerifyCache.bind),
// and this file only maps a directory to its open store. The soundness
// argument is unchanged from the in-memory cache: records are keyed by
// (cone fingerprint, EnvKey), so a restored abduct or Sat set is only ever
// consulted for a cone with the identical structural and environmental
// identity it was derived under.

import (
	"path/filepath"
	"sync"

	"hhoudini/internal/proofdb"
)

// proofDBReg maps each directory named by Options.CacheDir to its open
// store, shared for the life of the process: the first learner to name a
// directory opens (and loads) the store; every learner's cache is bound to
// it on construction; Learn persists at shutdown. CloseProofDBs is the
// process-exit hook.
var proofDBReg = struct {
	sync.Mutex
	open map[string]*proofdb.DB
}{open: make(map[string]*proofdb.DB)}

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
// stores keep their policy.
func SetDefaultJournal(opts proofdb.JournalOptions) {
	defaultJournal.Lock()
	defaultJournal.opts = opts
	defaultJournal.Unlock()
}

// boundProofDB returns the process-wide store for dir (opening it on first
// use, with the default append options) with vc bound to it. Data-level
// corruption — torn records, bit flips, a version-mismatched file — only
// makes the store load colder (see proofdb.Stats); an environmental failure
// (unwritable directory) degrades to nil, and the learner then runs with a
// purely in-memory cache, which is the documented cold-start behaviour for
// unusable stores.
func boundProofDB(dir string, vc *VerifyCache) *proofdb.DB {
	key := dir
	if abs, err := filepath.Abs(dir); err == nil {
		key = abs
	}
	proofDBReg.Lock()
	db := proofDBReg.open[key]
	if db == nil {
		defaultJournal.Lock()
		opts := proofdb.Options{Journal: defaultJournal.opts}
		defaultJournal.Unlock()
		var err error
		if db, err = proofdb.Open(dir, opts); err != nil {
			proofDBReg.Unlock()
			return nil
		}
		proofDBReg.open[key] = db
	}
	proofDBReg.Unlock()
	vc.bind(db)
	return db
}

// ProofDBStatsFor reports the live store counters for the CacheDir-bound
// store at dir, if one is open in this process. Serving daemons use it to
// surface append health without holding their own store reference.
func ProofDBStatsFor(dir string) (proofdb.Stats, bool) {
	key := dir
	if abs, err := filepath.Abs(dir); err == nil {
		key = abs
	}
	proofDBReg.Lock()
	db := proofDBReg.open[key]
	proofDBReg.Unlock()
	if db == nil {
		return proofdb.Stats{}, false
	}
	return db.Stats(), true
}

// CloseProofDBs closes every proof store opened through Options.CacheDir —
// each one's final rewrite, which also writes the last-use times of the
// records queries reused — and empties the registry (so a later Learner
// re-opens, and re-reads, the file). Caches still bound to a closed store
// append nothing more to it. It returns the first error encountered; each
// store's LastErr keeps its own.
func CloseProofDBs() error {
	proofDBReg.Lock()
	open := proofDBReg.open
	proofDBReg.open = make(map[string]*proofdb.DB)
	proofDBReg.Unlock()
	var first error
	for _, db := range open {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CrashProofDBs simulates a process kill for every CacheDir-bound store:
// the registry is emptied and each store is abandoned WITHOUT a final
// flush or final sync — on-disk state is left exactly as a kill -9 would
// have left it. Test harnesses use this to measure the appends' real loss
// window end-to-end (a clean Close would flush and hide it).
func CrashProofDBs() {
	proofDBReg.Lock()
	open := proofDBReg.open
	proofDBReg.open = make(map[string]*proofdb.DB)
	proofDBReg.Unlock()
	for _, db := range open {
		db.Abandon()
	}
}
