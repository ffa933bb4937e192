// Package proofdb is the persistent proof store: the answers the
// verification engine has already derived — cone-level abducts and
// candidate sets proven Sat — keyed by system identity (circuit fingerprint +
// environment key). The paper's relative-induction checks are pure
// functions of that identity (§3.2), so a CLI run, an experiment sweep and
// a CI job over the same design can restore each other's warm starts.
//
// The store is one file, dir/proof.db (format.go), written two ways:
// Append adds a delta's lines to its end (append.go), and Flush rewrites it
// whole — temp file, fsync, atomic rename, directory fsync — so a crash
// leaves the old file or the new one, never a torn one. Open reads every
// line, newest record wins per identity; corrupt lines are skipped and
// counted, a torn final line is truncated, and a mismatched version header
// rejects the file — never an error, only a colder start.
//
// DB owns the file and the full record image; a verification cache appends
// each record it derives once and calls Touch when a query reuses a
// restored one. A record's last use is its latest Append or Touch: records
// unused for MaxAge are evicted, and each rewrite LRU-compacts to MaxBytes.
// LastErr keeps the outcome of the last Flush, Persist or Close for callers
// that cannot propagate it.
package proofdb

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hhoudini/internal/crashsim"
	"hhoudini/internal/faultinject"
)

// Defaults for Options.
const (
	// FileName is the store file inside the cache directory.
	FileName = "proof.db"
	// DefaultDir is the conventional cache directory name tools use when
	// persistence is requested without an explicit path. It is listed in
	// the repository .gitignore.
	DefaultDir = ".hhcache"
	// DefaultMaxAge evicts records not used for two weeks: long enough to
	// span CI cadences, short enough that abandoned designs age out.
	DefaultMaxAge = 14 * 24 * time.Hour
	// DefaultMaxBytes bounds the on-disk footprint of one store.
	DefaultMaxBytes = 64 << 20
)

// Options tune a store.
type Options struct {
	// MaxAge is the staleness bound: records whose last use is older are
	// evicted at load and flush time. 0 means DefaultMaxAge; negative
	// disables age eviction.
	MaxAge time.Duration
	// MaxBytes is the on-disk byte budget enforced by LRU compaction at
	// flush time. 0 means DefaultMaxBytes; negative disables the budget.
	MaxBytes int64
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
	// Journal configures appends (append.go). Disabled by default: deltas
	// then stay in memory until the next Flush.
	Journal JournalOptions
}

// Stats are cumulative store counters (snapshot under the DB lock).
type Stats struct {
	// ClausesLoaded always reads 0: learnt-clause records from older
	// stores are skipped at Open. The field stays for callers that sum
	// the Loaded counters.
	ClausesLoaded  int64 `json:"clauses_loaded"`
	VerdictsLoaded int64 `json:"verdicts_loaded"` // negset and verdict records restored from disk at Open
	AbductsLoaded  int64 `json:"abducts_loaded"`  // cone-abduct records restored from disk at Open
	CorruptSkipped int64 `json:"corrupt_skipped"` // records dropped for framing/CRC/JSON/validity
	ExpiredSkipped int64 `json:"expired_skipped"` // records dropped at load for exceeding MaxAge
	HeaderRejected bool  `json:"header_rejected"` // whole file rejected: missing/mismatched version
	Flushes        int64 `json:"flushes"`         // successful atomic rewrites
	AgeEvicted     int64 `json:"age_evicted"`     // records evicted at flush for exceeding MaxAge
	BudgetEvicted  int64 `json:"budget_evicted"`  // records LRU-evicted at flush for the byte budget
	BytesOnDisk    int64 `json:"bytes_on_disk"`   // current size of the store file

	// Append counters (append.go).
	JournalAppends   int64 `json:"journal_appends"`    // records appended to the file
	JournalSyncs     int64 `json:"journal_syncs"`      // fsyncs of the append handle (durability points)
	JournalReplayed  int64 `json:"journal_replayed"`   // record lines Open applied to the model
	JournalTornTails int64 `json:"journal_torn_tails"` // torn final lines truncated at Open
	JournalDegraded  bool  `json:"journal_degraded"`   // appends abandoned after persistent I/O errors
}

// Snapshot is the portable in-memory image of a store (also the exchange
// type with the verification cache: the cache restores a Snapshot and
// appends its new records as one-key Snapshots, without knowing anything
// about files).
type Snapshot struct {
	Keys []KeyRecord
}

// KeyRecord holds every persisted fact for one cache identity (a
// cone-level key).
type KeyRecord struct {
	Key      string
	Verdicts []Verdict
	Abducts  []Abduct
	Negsets  []Negset
}

// Verdict is one hashed abduction verdict as older engines wrote it. A/B
// are the two independent 64-bit hashes identifying the query; OK false
// records "no abduct exists"; Preds are the abduct member predicate IDs
// when OK. The store still loads and rewrites these records; the
// verification cache does not restore them.
type Verdict struct {
	A, B  uint64
	OK    bool
	Preds []string
}

// Abduct is one proven abduct for a target predicate — the cone record.
// Unlike a Verdict it names the target directly instead of hashing the full
// query, because it answers every query whose candidate set contains Preds.
type Abduct struct {
	Target string
	Preds  []string
}

// Negset is one candidate set proven Sat for a target predicate: no abduct
// exists over Cands, nor over any subset of them.
type Negset struct {
	Target string
	Cands  []string
}

// Len returns the total number of records in the snapshot.
func (s *Snapshot) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, kr := range s.Keys {
		n += len(kr.Verdicts) + len(kr.Abducts) + len(kr.Negsets)
	}
	return n
}

// records renders the snapshot as wire records stamped with last-use time
// at, dropping any that would not load back (valid).
func (s *Snapshot) records(at int64) []record {
	if s == nil {
		return nil
	}
	var out []record
	add := func(r record) {
		if r.valid() {
			out = append(out, r)
		}
	}
	for _, kr := range s.Keys {
		for _, v := range kr.Verdicts {
			add(record{T: recVerdict, Key: kr.Key, At: at, A: v.A, B: v.B, OK: v.OK, Preds: v.Preds})
		}
		for _, a := range kr.Abducts {
			add(record{T: recConeAbduct, Key: kr.Key, At: at, Preds: append([]string{a.Target}, a.Preds...)})
		}
		for _, n := range kr.Negsets {
			add(record{T: recNegset, Key: kr.Key, At: at, Preds: append([]string{n.Target}, n.Cands...)})
		}
	}
	return out
}

// DB is an open store: an in-memory model of the on-disk records plus the
// machinery to fold in, evict, append and atomically persist them. All
// methods are safe for concurrent use.
type DB struct {
	mu    sync.Mutex
	path  string // the store file (dir/FileName)
	opts  Options
	model map[recID]record
	stats Stats

	// Append state (append.go), guarded by mu. f is the O_APPEND handle on
	// path; nil when appends are off, degraded, or closed. rewriteBytes is
	// the file size after its last rewrite (or as Open found it): Persist
	// rewrites once appends have doubled it.
	f            *os.File
	dirty        bool // unsynced bytes written through f
	faults       int  // consecutive append/sync failures
	degraded     bool
	rewriteBytes int64

	// closed is set by Close and Abandon: later Appends and rewrites are
	// ignored. lastErr is the outcome of the last Flush, Persist or Close
	// (LastErr), for callers that cannot propagate it.
	closed  bool
	lastErr error
}

// recID is a record's identity in the model: its key and type plus either
// the verdict's query hashes or, for a cone or negset record, its
// signature — target and ID set, sorted so permutations dedup.
type recID struct {
	key  string
	t    string
	a, b uint64
	sig  string // "" for verdicts
}

func idOf(r *record) recID {
	if r.T == recVerdict {
		return recID{key: r.Key, t: r.T, a: r.A, b: r.B}
	}
	members := append([]string(nil), r.Preds[1:]...)
	sort.Strings(members)
	return recID{key: r.Key, t: r.T, sig: r.Preds[0] + "\x00" + strings.Join(members, "\x00")}
}

// Open opens (creating the directory if needed) the store in dir and loads
// its current contents. Data-level corruption is never an error: torn or
// bit-flipped records are skipped, a version-mismatched file is rejected
// wholesale, and both are reported through Stats — the returned DB simply
// starts colder. Errors are reserved for environmental failures
// (unreadable directory).
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.MaxAge == 0 {
		opts.MaxAge = DefaultMaxAge
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	db := &DB{
		path:  filepath.Join(dir, FileName),
		opts:  opts,
		model: make(map[recID]record),
	}
	dropLeftoverSegments(dir)
	usable, err := db.load()
	if err != nil {
		return nil, err
	}
	if opts.Journal.Enable {
		db.openAppendLocked(!usable)
	}
	return db, nil
}

// dropLeftoverSegments deletes the write-ahead segments (journal-*.wal)
// that older engines kept beside proof.db. They are not replayed: their
// records are lost and the store starts colder, which is never an error.
func dropLeftoverSegments(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".wal") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// Path returns the store file path.
func (db *DB) Path() string { return db.path }

// Stats returns a point-in-time snapshot of the store counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// load reads the store file into the model and reports whether the file
// exists under an accepted header. Only I/O errors propagate. It runs once,
// from Open, before any concurrent use.
func (db *DB) load() (usable bool, err error) {
	raw, err := os.ReadFile(db.path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	db.stats.BytesOnDisk = int64(len(raw))
	hdr := header() + "\n"
	if !bytes.HasPrefix(raw, []byte(hdr)) {
		// Missing, truncated, or version-mismatched header: reject the
		// whole file. Open replaces it when appends are on; otherwise the
		// next rewrite does.
		db.stats.HeaderRejected = true
		return false, nil
	}
	// A final line without its newline is a torn append. Truncate it so
	// the next append starts on a line boundary.
	end := bytes.LastIndexByte(raw, '\n') + 1
	if end < len(raw) {
		db.stats.CorruptSkipped++
		db.stats.JournalTornTails++
		if os.Truncate(db.path, int64(end)) == nil {
			db.stats.BytesOnDisk = int64(end)
		}
	}
	db.rewriteBytes = db.stats.BytesOnDisk

	cutoff := int64(0)
	if db.opts.MaxAge > 0 {
		cutoff = db.opts.Now().Add(-db.opts.MaxAge).Unix()
	}
	for rest := raw[len(hdr):end]; len(rest) > 0; {
		nl := bytes.IndexByte(rest, '\n')
		r, ok := decodeLine(rest[:nl])
		rest = rest[nl+1:]
		switch {
		case !ok:
			db.stats.CorruptSkipped++
		case r.T == recLegacyClause: // older engines' learnt clauses: dropped
		case cutoff > 0 && r.At < cutoff:
			db.stats.ExpiredSkipped++
		default:
			db.putLocked(&r)
			db.stats.JournalReplayed++
			if r.T == recConeAbduct {
				db.stats.AbductsLoaded++
			} else {
				db.stats.VerdictsLoaded++
			}
		}
	}
	return true, nil
}

// putLocked folds one valid record into the model. A record at least as
// recent as the one it meets replaces it, so the newest line wins at load
// and an Append refreshes the last-use time.
func (db *DB) putLocked(r *record) {
	id := idOf(r)
	if prev, dup := db.model[id]; !dup || r.At >= prev.At {
		db.model[id] = *r
	}
}

// Touch refreshes the last-use time of the record the model holds for
// key and target — the Sat set ids when sat, else the abduct ids — which
// is the LRU signal MaxAge and the byte budget evict by. A record the model
// does not hold stays absent; nothing is written until the next rewrite.
func (db *DB) Touch(key, target string, sat bool, ids []string) {
	r := record{T: recConeAbduct, Key: key, Preds: append([]string{target}, ids...)}
	if sat {
		r.T = recNegset
	}
	id := idOf(&r)
	// Read the clock before taking db.mu (user-supplied callback; see Flush).
	at := db.opts.Now().Unix()
	db.mu.Lock()
	defer db.mu.Unlock()
	if prev, ok := db.model[id]; ok && prev.At < at {
		prev.At = at
		db.model[id] = prev
	}
}

// sortedIDsLocked lists the model's record identities in deterministic
// order: by key, then type, then signature or query hashes.
func (db *DB) sortedIDsLocked() []recID {
	ids := make([]recID, 0, len(db.model))
	for id := range db.model {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		x, y := ids[i], ids[j]
		switch {
		case x.key != y.key:
			return x.key < y.key
		case x.t != y.t:
			return x.t < y.t
		case x.sig != y.sig:
			return x.sig < y.sig
		case x.a != y.a:
			return x.a < y.a
		}
		return x.b < y.b
	})
	return ids
}

// Snapshot exports the current model in deterministic (key-sorted) order.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := &Snapshot{}
	for _, id := range db.sortedIDsLocked() {
		r := db.model[id]
		if n := len(out.Keys); n == 0 || out.Keys[n-1].Key != r.Key {
			out.Keys = append(out.Keys, KeyRecord{Key: r.Key})
		}
		kr := &out.Keys[len(out.Keys)-1]
		var ids []string // nil, not empty, when the record names only its target
		if r.T != recVerdict && len(r.Preds) > 1 {
			ids = r.Preds[1:]
		}
		switch r.T {
		case recVerdict:
			kr.Verdicts = append(kr.Verdicts, Verdict{A: r.A, B: r.B, OK: r.OK, Preds: r.Preds})
		case recConeAbduct:
			kr.Abducts = append(kr.Abducts, Abduct{Target: r.Preds[0], Preds: ids})
		default:
			kr.Negsets = append(kr.Negsets, Negset{Target: r.Preds[0], Cands: ids})
		}
	}
	return out
}

// Flush atomically rewrites the store file from the model, applying the
// staleness policy: age-expired records are evicted first, then the
// least-recently-used records beyond the byte budget. The write is
// crash-safe — temp file, fsync, rename, directory fsync — and appends
// continue on the new file.
func (db *DB) Flush() error {
	// Read the clock before taking db.mu: Options.Now is a user-supplied
	// callback and must not run under the store lock (lockscope invariant —
	// a re-entrant clock could deadlock against Flush).
	now := db.opts.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.lastErr = db.rewriteLocked(now, db.opts.Journal.Enable && !db.degraded)
	return db.lastErr
}

// LastErr returns the outcome of the most recent Flush, Persist or Close:
// nil when none has failed since the last success.
func (db *DB) LastErr() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastErr
}

// rewriteLocked is Flush under db.mu; reopen says whether to reopen the
// append handle on the new file.
func (db *DB) rewriteLocked(now time.Time, reopen bool) error {
	if db.opts.MaxAge > 0 {
		cutoff := now.Add(-db.opts.MaxAge).Unix()
		for id, r := range db.model {
			if r.At < cutoff {
				delete(db.model, id)
				db.stats.AgeEvicted++
			}
		}
	}
	// LRU compaction: newest-used first; everything past the byte budget
	// is dropped from both the file and the model.
	ids := db.sortedIDsLocked()
	sort.SliceStable(ids, func(i, j int) bool { return db.model[ids[i]].At > db.model[ids[j]].At })
	buf := []byte(header() + "\n")
	budget := db.opts.MaxBytes
	for _, id := range ids {
		r := db.model[id]
		line, err := encodeLine(&r)
		if err != nil {
			return err
		}
		if budget > 0 && int64(len(buf)+len(line)) > budget {
			delete(db.model, id)
			db.stats.BudgetEvicted++
			continue
		}
		buf = append(buf, line...)
	}
	if err := atomicWrite(db.path, buf); err != nil {
		return err
	}
	db.stats.Flushes++
	db.stats.BytesOnDisk = int64(len(buf))
	db.rewriteBytes = int64(len(buf))
	// The rename replaced the file the append handle points at, and the
	// rewrite holds every line appended through it: close the old handle
	// unsynced and continue on the new inode.
	db.closeAppendLocked()
	if reopen {
		db.openAppendLocked(false)
	}
	return nil
}

// Abandon drops the store without flushing or syncing anything — the
// simulated `kill -9` for in-process crash tests. On-disk state is left
// exactly as the last completed write left it, and the store is closed.
func (db *DB) Abandon() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closeAppendLocked()
	db.closed = true
}

// Close rewrites the store one last time, closes the append handle and
// marks the store closed. It is the final durability point. If the rewrite
// fails, the appended lines are synced instead, and the rewrite error is
// returned. Closing a closed store returns nil and writes nothing.
func (db *DB) Close() error {
	now := db.opts.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	err := db.rewriteLocked(now, false)
	if db.f != nil {
		if serr := db.syncLocked(); err == nil {
			err = serr
		}
		db.closeAppendLocked()
	}
	db.lastErr = err
	return err
}

// atomicWrite performs the crash-safe rewrite: write to <path>.tmp, fsync,
// rename over path, fsync the directory.
func atomicWrite(path string, data []byte) error {
	if faultinject.Enabled() {
		// Chaos tier: a failed rewrite must leave the previous on-disk
		// store byte-identical (the injected error fires before the temp
		// file exists, mirroring an out-of-space or permission failure).
		if err := faultinject.FireErr(faultinject.ProofDBWrite); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && crashsim.Enabled() {
		crashsim.Maybe(crashRenameBefore)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if crashsim.Enabled() {
		crashsim.Maybe(crashRenameAfter)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir makes a rename or file creation in dir durable. Best-effort: some
// filesystems reject directory fsync, and the rename itself is atomic.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		//hhlint:ignore flusherr directory fsync is best-effort: some filesystems reject it and the rename is already atomic
		d.Sync()
		//hhlint:ignore flusherr read-only directory handle; nothing to lose on Close
		d.Close()
	}
}
