// Appends: the bounded-loss half of the durability story. A rewrite costs
// O(store), so each delta's lines are instead written to the end of
// proof.db through one O_APPEND handle as they land; Open reads them like
// any other line, and the next rewrite folds them in.
//
// Recovery is never an error and always a prefix of the append order: Open
// truncates a torn final line, and a synced line precedes any torn tail,
// so SyncEveryRecord loses nothing whose Append returned. The learner never
// fails because the disk did: write and sync errors are counted, and
// journalFaultLimit of them in a row degrade the store to rewrite-only mode
// (handle closed, Stats.JournalDegraded set).
package proofdb

import (
	"os"
	"path/filepath"

	"hhoudini/internal/crashsim"
	"hhoudini/internal/faultinject"
)

// SyncPolicy selects when appended records become durable.
type SyncPolicy int

const (
	// SyncOnFlush fsyncs only at explicit durability points (Persist,
	// Flush, Close). Cheapest appends; the loss window is everything since
	// the last such point.
	SyncOnFlush SyncPolicy = iota
	// SyncEveryRecord fsyncs after every Append: zero committed-record
	// loss on any crash, at one fsync per delta.
	SyncEveryRecord
)

// journalFaultLimit is the consecutive-failure streak that degrades the
// store to rewrite-only mode.
const journalFaultLimit = 3

// Crash points compiled into the append and rewrite paths (see
// internal/crashsim). The torture harness kills a child process at every
// one of these and asserts recovery invariants on the remains.
const (
	crashAppendBefore = "journal.append.before"  // delta not yet written
	crashAppendTorn   = "journal.append.torn"    // half the delta written
	crashAppendAfter  = "journal.append.after"   // written, not synced
	crashSyncAfter    = "journal.sync.after"     // fsync completed
	crashRenameBefore = "snapshot.rename.before" // temp file synced, not renamed
	crashRenameAfter  = "snapshot.rename.after"  // renamed, append handle not yet reopened
)

// JournalOptions tune the appends of one store.
type JournalOptions struct {
	// Enable turns appends on. Off by default: a bare proofdb.Open keeps
	// deltas in memory until Flush; the hhoudini persistence layer enables
	// appends for its CacheDir bindings.
	Enable bool
	// Sync is the durability policy for appended records.
	Sync SyncPolicy
}

// openAppendLocked opens the O_APPEND handle on the store file. With create
// set (no file under an accepted header yet) the file is created or
// truncated and given a fresh header. A failure counts toward the
// degradation ladder; appends then stay in memory until a rewrite.
func (db *DB) openAppendLocked(create bool) {
	flag := os.O_WRONLY | os.O_APPEND
	if create {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(db.path, flag, 0o644)
	if err == nil && create {
		hdr := header() + "\n"
		if _, err = f.WriteString(hdr); err != nil {
			//hhlint:ignore flusherr cleanup on an already-failed header write; the write error is the one counted
			f.Close()
		} else {
			db.stats.BytesOnDisk, db.rewriteBytes = int64(len(hdr)), int64(len(hdr))
			db.dirty = true
			syncDir(filepath.Dir(db.path))
		}
	}
	if err != nil {
		db.faultLocked()
		return
	}
	db.f = f
}

// closeAppendLocked closes the append handle without syncing it.
func (db *DB) closeAppendLocked() {
	if db.f != nil {
		//hhlint:ignore flusherr callers either hold every appended line elsewhere (a rewrite, a model flush) or are abandoning the store on purpose
		db.f.Close()
		db.f = nil
	}
	db.dirty = false
}

// faultLocked records one append-path failure and degrades the store after
// a persistent streak.
func (db *DB) faultLocked() {
	db.faults++
	if db.faults >= journalFaultLimit && !db.degraded {
		db.closeAppendLocked()
		db.degraded = true
		db.stats.JournalDegraded = true
	}
}

// Append is the write-ahead delta path: it folds s into the model exactly
// like Merge and, when appends are on, writes every record it carries to
// the end of the store file, so the delta survives a crash without waiting
// for the next rewrite. It never returns an error — I/O failures feed the
// degradation ladder (Stats.JournalDegraded) and the caller's data stays
// safe in the model for the next Flush.
func (db *DB) Append(s *Snapshot) {
	recs := s.records(db.opts.Now().Unix())
	if len(recs) == 0 {
		return
	}
	var buf []byte
	if db.opts.Journal.Enable {
		for i := range recs {
			if line, err := encodeLine(&recs[i]); err == nil {
				buf = append(buf, line...)
			}
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range recs {
		db.putLocked(&recs[i])
	}
	if db.f == nil {
		return
	}
	if crashsim.Enabled() {
		crashsim.Maybe(crashAppendBefore)
		if crashsim.WouldCrash(crashAppendTorn) {
			_, _ = db.f.Write(buf[:len(buf)/2])
			crashsim.Crash()
		}
	}
	if faultinject.Enabled() {
		if err := faultinject.FireErr(faultinject.JournalAppend); err != nil {
			db.faultLocked()
			return
		}
	}
	if _, err := db.f.Write(buf); err != nil {
		db.faultLocked()
		return
	}
	if crashsim.Enabled() {
		crashsim.Maybe(crashAppendAfter)
	}
	db.stats.BytesOnDisk += int64(len(buf))
	db.stats.JournalAppends += int64(len(recs))
	db.dirty = true
	db.faults = 0
	if db.opts.Journal.Sync == SyncEveryRecord {
		//hhlint:ignore flusherr a failed sync feeds the degradation ladder inside syncLocked; Append never errors by contract
		db.syncLocked()
	}
}

// syncLocked makes the appended lines durable. Errors feed the degradation
// ladder and are also returned so explicit durability points (Persist) can
// fall back to a rewrite.
func (db *DB) syncLocked() error {
	if db.f == nil || !db.dirty {
		return nil
	}
	if faultinject.Enabled() {
		if err := faultinject.FireErr(faultinject.JournalSync); err != nil {
			db.faultLocked()
			return err
		}
	}
	if err := db.f.Sync(); err != nil {
		db.faultLocked()
		return err
	}
	if crashsim.Enabled() {
		crashsim.Maybe(crashSyncAfter)
	}
	db.dirty = false
	db.faults = 0
	db.stats.JournalSyncs++
	return nil
}

// Persist is the cheap durability point: when appends are on and healthy,
// one fsync commits everything appended so far — cost proportional to new
// work, not store size. It escalates to a full rewrite (Flush) when appends
// are off or degraded, when the sync fails, or when appends have grown the
// file past twice the size of its last rewrite.
func (db *DB) Persist() error {
	db.mu.Lock()
	escalate := db.f == nil
	if !escalate {
		err := db.syncLocked()
		escalate = err != nil || db.stats.BytesOnDisk > 2*db.rewriteBytes
	}
	db.mu.Unlock()
	if escalate {
		return db.Flush()
	}
	return nil
}
