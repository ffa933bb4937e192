package hhoudini

import (
	"fmt"
	"slices"
	"sync"

	"hhoudini/internal/proofdb"
)

// VerifyCache is the process-wide, concurrency-safe memo store that outlives
// individual Learners: what crosses a Learn is the *answer* of a sub-problem
// (§3.2.1 memoizes the abduct of H-Houdini(p_target)), never solver state —
// a solver lives for one query and is dropped when it returns.
// Safe-set synthesis and the experiment sweeps re-verify near-identical
// systems many times, and an answer is a pure function of the system
// identity, so a repeat is served without building a solver at all.
//
// Keys are cone-level (System.ConeCacheKey): the canonical fingerprint of
// the target's fan-in cone combined with the environment-assumption identity
// (EnvKey). Changing the safe set changes the EnvKey, so stale entries can
// never be consulted; that is the whole invalidation story, by
// construction. Under each key, every target keeps one monotone memo in two
// halves (see lookup):
//
//  1. proven abducts — an abduct A stays Unsat under more candidates, so it
//     answers every query whose candidate set contains A;
//  2. maximal candidate sets proven Sat — a Sat set stays Sat under fewer
//     candidates, so it answers "no abduct" for every subset of itself.
//
// Memory is bounded: each half is capped per target, and whole keys are
// evicted LRU beyond maxKeys. The cache is the bounded working set; a bound
// proof store (bind) holds the full record image: it is restored once,
// hears each new record once (store), and is touched when a query reuses a
// restored record (lookup).
type VerifyCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	useSeq  uint64 // global LRU clock

	maxKeys int

	// counters are the cache's process-lifetime counters and footprint,
	// maintained under vc.mu by every lookup and mutation.
	counters CacheCounters

	// db is the bound proof store (nil when none): every new record is
	// appended to it as it lands, so the crash-loss window is the sync
	// policy's. Set under vc.mu; called strictly outside it (the store's
	// lock ordering stays independent of the cache's).
	db *proofdb.DB
}

// Default sizing.
const (
	// Every distinct target cone is its own key, so the LRU must hold a
	// design's worth of cones — the evaluated OoO designs have a few
	// hundred. Worst-case memory stays bounded by the per-target cap below.
	defaultCacheMaxKeys = 512
	// maxRecordsPerTarget caps each half of the memo per (key, target):
	// distinct proven abducts or maximal Sat sets for one target are rare
	// (candidate drift yields near-identical cores), so a small cap bounds
	// the containment scans while keeping every useful answer.
	maxRecordsPerTarget = 8
)

type cacheEntry struct {
	lastUse uint64
	// bytes/records mirror this entry's share of the cache's footprint
	// (records, key string), maintained by the add paths so whole-key
	// eviction can decrement in O(1).
	bytes   int64
	records int

	// targets is the monotone memo: target predicate ID → what is proven
	// about that target's abduction queries under this key.
	targets map[string]*targetMemo
}

// targetMemo is the memo for one target predicate.
type targetMemo struct {
	abducts []memoRec // proven abducts: each answers its candidate supersets
	satSets []memoRec // maximal candidate sets proven Sat: each answers its subsets
}

// memoRec is one remembered solver answer.
type memoRec struct {
	// ids are an abduct's member IDs in solver-returned order, or a Sat
	// set's candidate IDs sorted and without the target.
	ids      []string
	sig      string // abducts: canonical member signature (sorted IDs)
	fromDisk bool   // restored from a persistent proof store
}

// NewVerifyCache returns an empty cache with default bounds.
func NewVerifyCache() *VerifyCache {
	return &VerifyCache{
		entries: make(map[string]*cacheEntry),
		maxKeys: defaultCacheMaxKeys,
	}
}

// sharedCache is the process-global instance used when no explicit
// Options.Cache is supplied.
var sharedCache = NewVerifyCache()

// SharedCache returns the process-global verification cache.
func SharedCache() *VerifyCache { return sharedCache }

// CacheCounters are the cache's effectiveness counters and footprint. Every
// memo lookup is exactly one of a verdict hit, an abduct hit or a miss.
type CacheCounters struct {
	KeyEvictions  int64 // whole keys dropped by key-LRU pressure
	VerdictHits   int64 // queries answered "no abduct" by a stored Sat set
	VerdictMisses int64 // queries neither half of the memo answered
	AbductHits    int64 // queries answered by a stored abduct

	// Persistence counters (zero unless a proof store is attached).
	DiskVerdictsLoaded int64 // abducts and Sat sets restored from a disk snapshot
	DiskVerdictHits    int64 // hits answered by restored records

	// Footprint (see Len and Bytes).
	Entries     int64 // records held: abducts + Sat sets
	ApproxBytes int64 // approximate heap bytes of the memo
	// BytesHighWater is the largest ApproxBytes this cache ever reached
	// (never reset) — eviction keeps the live figure bounded, so capacity
	// planning needs the peak, not the current value.
	BytesHighWater int64
}

// Counters returns a copy of the cache counters, all from one moment.
func (vc *VerifyCache) Counters() CacheCounters {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.counters
}

// Len returns the number of records the cache currently holds — proven
// abducts and Sat sets across every key. O(1): the figure is maintained
// incrementally by every mutation.
func (vc *VerifyCache) Len() int { return int(vc.Counters().Entries) }

// Bytes returns an approximation of the heap footprint of the memo. The
// estimate counts string payloads plus fixed per-record overheads; it
// exists so eviction behavior is observable, not as an accounting
// guarantee. O(1).
func (vc *VerifyCache) Bytes() int64 { return vc.Counters().ApproxBytes }

// recordOverhead is the fixed per-record share of the byte estimate (see
// Bytes): the memoRec header plus its slice slot.
const recordOverhead = 64

// recBytes estimates the heap footprint of one memo record.
func recBytes(r memoRec) int64 {
	b := recordOverhead + int64(len(r.sig))
	for _, id := range r.ids {
		b += 16 + int64(len(id))
	}
	return b
}

// creditLocked charges a footprint delta to an entry and the cache-wide
// aggregates, advancing the high-water mark on growth. Caller holds vc.mu.
// Deltas are negative when a record is replaced.
func (vc *VerifyCache) creditLocked(e *cacheEntry, records int, bytes int64) {
	e.records += records
	e.bytes += bytes
	c := &vc.counters
	c.Entries += int64(records)
	c.ApproxBytes += bytes
	c.BytesHighWater = max(c.BytesHighWater, c.ApproxBytes)
}

// String renders the counters for tool output.
func (vc *VerifyCache) String() string {
	c := vc.Counters()
	s := fmt.Sprintf(
		"verify-cache{negative hits %d, abduct hits %d, misses %d, key evictions %d, entries %d (~%dB)",
		c.VerdictHits, c.AbductHits, c.VerdictMisses, c.KeyEvictions, c.Entries, c.ApproxBytes)
	if c.DiskVerdictsLoaded+c.DiskVerdictHits > 0 {
		s += fmt.Sprintf(", disk loaded %d hits %d", c.DiskVerdictsLoaded, c.DiskVerdictHits)
	}
	return s + "}"
}

// Reset drops every cached entry (counters and the bytes high-water are
// preserved). Intended for tests and long-lived services that change
// workloads.
func (vc *VerifyCache) Reset() {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.entries = make(map[string]*cacheEntry)
	vc.counters.Entries, vc.counters.ApproxBytes = 0, 0
}

// entryLocked returns (creating if needed) the entry for key and touches
// its LRU clock. Caller holds vc.mu. The clock is stamped before key
// eviction runs, so a brand-new entry is the most recently used key, never
// the victim.
func (vc *VerifyCache) entryLocked(key string) *cacheEntry {
	e, ok := vc.entries[key]
	if !ok {
		e = &cacheEntry{targets: make(map[string]*targetMemo)}
		vc.entries[key] = e
		vc.creditLocked(e, 0, int64(len(key))) // key string + map slot share
	}
	vc.useSeq++
	e.lastUse = vc.useSeq
	if !ok {
		vc.evictKeysLocked()
	}
	return e
}

// evictKeysLocked drops whole least-recently-used keys beyond maxKeys.
func (vc *VerifyCache) evictKeysLocked() {
	for len(vc.entries) > vc.maxKeys {
		var victim string
		var victimE *cacheEntry
		var oldest uint64 = ^uint64(0)
		for k, e := range vc.entries {
			if e.lastUse < oldest {
				oldest, victim, victimE = e.lastUse, k, e
			}
		}
		vc.counters.KeyEvictions++
		vc.counters.Entries -= int64(victimE.records)
		vc.counters.ApproxBytes -= victimE.bytes
		delete(vc.entries, victim)
	}
}

// --- The monotone memo ------------------------------------------------------

// sortedSet returns ids sorted and without duplicates, in a new slice.
func sortedSet(ids []string) []string {
	s := slices.Clone(ids)
	slices.Sort(s)
	return slices.Compact(s)
}

// candidateIDs is a query's candidate set as a sorted set of IDs, without
// the target: the abduction backends assert the target unconditionally, so
// its presence among the candidates never changes the answer.
func candidateIDs(targetID string, cands []Pred) []string {
	ids := make([]string, 0, len(cands))
	for _, c := range cands {
		if id := c.ID(); id != targetID {
			ids = append(ids, id)
		}
	}
	return sortedSet(ids)
}

// abductSig canonicalizes an abduct's member-ID list (order-independent).
func abductSig(ids []string) string {
	var b []byte
	for _, id := range sortedSet(ids) {
		b = append(b, id...)
		b = append(b, 0)
	}
	return string(b)
}

// subsetOf reports whether every element of the sorted list a occurs in
// the sorted list b.
func subsetOf(a, b []string) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// lookup answers one abduction query from the memo. A stored Sat set that
// contains every candidate answers "no abduct". Otherwise the smallest
// stored abduct whose members all appear among the candidates (or are the
// target) answers, rebuilt from the caller's predicate instances (IDs are
// canonical within a key: equal IDs ⇒ semantically identical predicates);
// equal sizes go to the lowest signature, so a memo restored from disk
// answers exactly as the live one it was written from. ok is false when
// neither half answers; fromDisk reports that the answering record was
// restored from a persistent proof store, whose copy is then touched.
func (vc *VerifyCache) lookup(key string, target Pred, cands []Pred) (res abductResult, fromDisk, ok bool) {
	tid := target.ID()
	ids := candidateIDs(tid, cands)
	contained := func(members []string) bool {
		for _, id := range members {
			if _, found := slices.BinarySearch(ids, id); !found && id != tid {
				return false
			}
		}
		return true
	}

	vc.mu.Lock()
	var m *targetMemo
	if e, found := vc.entries[key]; found {
		vc.useSeq++
		e.lastUse = vc.useSeq
		m = e.targets[tid]
	}
	var best *memoRec
	sat := false
	if m != nil {
		for i := range m.satSets {
			if subsetOf(ids, m.satSets[i].ids) {
				best, sat = &m.satSets[i], true
				break
			}
		}
	}
	if m != nil && !sat {
		for i := range m.abducts {
			r := &m.abducts[i]
			if contained(r.ids) && (best == nil || len(r.ids) < len(best.ids) ||
				len(r.ids) == len(best.ids) && r.sig < best.sig) {
				best = r
			}
		}
	}
	if best == nil {
		vc.counters.VerdictMisses++
		vc.mu.Unlock()
		return abductResult{}, false, false
	}
	members := slices.Clone(best.ids)
	fromDisk = best.fromDisk
	if fromDisk {
		vc.counters.DiskVerdictHits++
	}
	if sat {
		vc.counters.VerdictHits++
	} else {
		vc.counters.AbductHits++
	}
	db := vc.db
	vc.mu.Unlock()

	if fromDisk && db != nil {
		db.Touch(key, tid, sat, members)
	}
	if sat {
		return abductResult{ok: false}, fromDisk, true
	}
	byID := make(map[string]Pred, len(cands)+1)
	for _, c := range cands {
		byID[c.ID()] = c
	}
	byID[tid] = target
	preds := make([]Pred, len(members))
	for i, id := range members {
		preds[i] = byID[id]
	}
	return abductResult{preds: preds, ok: true}, fromDisk, true
}

// store records one solver answer for target: its abduct, or — when no
// abduct exists — its candidate set as a Sat set. A record the memo did not
// already imply is appended to the bound proof store.
func (vc *VerifyCache) store(key string, target Pred, cands []Pred, res abductResult) {
	tid := target.ID()
	var ids []string
	if res.ok {
		ids = make([]string, len(res.preds))
		for i, p := range res.preds {
			ids[i] = p.ID()
		}
	} else {
		ids = candidateIDs(tid, cands)
	}
	vc.mu.Lock()
	added := vc.addLocked(vc.entryLocked(key), tid, !res.ok, ids, false)
	db := vc.db
	vc.mu.Unlock()

	if !added || db == nil {
		return
	}
	kr := proofdb.KeyRecord{Key: key}
	if res.ok {
		kr.Abducts = []proofdb.Abduct{{Target: tid, Preds: ids}}
	} else {
		kr.Negsets = []proofdb.Negset{{Target: tid, Cands: ids}}
	}
	db.Append(&proofdb.Snapshot{Keys: []proofdb.KeyRecord{kr}})
}

// addLocked installs one record for targetID under e, credits the
// footprint, and reports whether the memo changed. An abduct is new unless
// its signature is already stored. A Sat set (ids sorted, without the
// target) is new unless a stored one contains it, and it replaces every
// stored one it contains. Each half holds at most maxRecordsPerTarget
// records; past the cap, new records are dropped in favor of the working
// set already present. Caller holds vc.mu.
func (vc *VerifyCache) addLocked(e *cacheEntry, targetID string, sat bool, ids []string, fromDisk bool) bool {
	m := e.targets[targetID]
	if m == nil {
		m = &targetMemo{}
		e.targets[targetID] = m
	}
	rec := memoRec{ids: slices.Clone(ids), fromDisk: fromDisk}
	if sat {
		for _, r := range m.satSets {
			if subsetOf(ids, r.ids) {
				return false
			}
		}
		kept := m.satSets[:0]
		for _, r := range m.satSets {
			if subsetOf(r.ids, ids) {
				vc.creditLocked(e, -1, -recBytes(r))
			} else {
				kept = append(kept, r)
			}
		}
		clear(m.satSets[len(kept):])
		m.satSets = kept
		if len(kept) >= maxRecordsPerTarget {
			return false
		}
		m.satSets = append(kept, rec)
	} else {
		rec.sig = abductSig(ids)
		if len(m.abducts) >= maxRecordsPerTarget {
			return false
		}
		for _, r := range m.abducts {
			if r.sig == rec.sig {
				return false
			}
		}
		m.abducts = append(m.abducts, rec)
	}
	vc.creditLocked(e, 1, recBytes(rec))
	return true
}

// --- Persistence (internal/proofdb exchange) --------------------------------

// bind makes db the store this cache's new records are appended to and,
// unless db is already the bound store, restores db's records into the
// cache. Restored records are not appended back: db already holds them.
func (vc *VerifyCache) bind(db *proofdb.DB) {
	vc.mu.Lock()
	same := vc.db == db
	vc.db = db
	vc.mu.Unlock()
	if !same {
		vc.Restore(db.Snapshot())
	}
}

// Restore merges a proofdb snapshot into the cache: abducts and Sat sets
// are installed as live ones would be (a Sat set already implied is
// skipped), marked as disk-restored so hits on them are observable
// (CacheCounters.DiskVerdictHits, Stats.CacheDiskHits). In-memory records
// win over restored ones with the same content. Hashed verdict records
// from older stores are not restored: a positive one was always written
// beside a cone abduct with the same answer, and a negative one costs one
// re-solve. Restoring more keys than the cache's key budget LRU-evicts the
// earliest restored ones, exactly as live insertion would. Returns the
// number of records admitted.
func (vc *VerifyCache) Restore(s *proofdb.Snapshot) (records int) {
	if s == nil {
		return 0
	}
	vc.mu.Lock()
	for _, kr := range s.Keys {
		if len(kr.Abducts)+len(kr.Negsets) == 0 {
			continue
		}
		e := vc.entryLocked(kr.Key)
		for _, a := range kr.Abducts {
			if a.Target != "" && vc.addLocked(e, a.Target, false, a.Preds, true) {
				records++
			}
		}
		for _, n := range kr.Negsets {
			if n.Target != "" && vc.addLocked(e, n.Target, true, sortedSet(n.Cands), true) {
				records++
			}
		}
	}
	vc.counters.DiskVerdictsLoaded += int64(records)
	vc.mu.Unlock()
	return records
}
