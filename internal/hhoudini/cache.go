package hhoudini

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"hhoudini/internal/proofdb"
)

// VerifyCache is the process-wide, concurrency-safe memo store that outlives
// individual Learners: what crosses a Learn is the *answer* of a sub-problem
// (§3.2.1 memoizes the abduct of H-Houdini(p_target)), never solver state —
// a worker's solvers live in its encoderPool for one Learn and are dropped.
// Safe-set synthesis and the experiment sweeps re-verify near-identical
// systems many times, and an answer is a pure function of the system
// identity, so a repeat is served without building a solver at all.
//
// Keys are cone-level (System.ConeCacheKey): the canonical fingerprint of
// the target's fan-in cone combined with the environment-assumption identity
// (EnvKey). Changing the safe set changes the EnvKey, so stale entries can
// never be consulted; that is the whole invalidation story, by
// construction. Under each key live two memos:
//
//  1. the verdict memo for whole relative-induction queries:
//     (target, candidate-set signature, minimize flag) → SAT/UNSAT + core;
//  2. the subset-abduct memo: target → proven abducts, each of which answers
//     any query whose candidate set contains it.
//
// Memory is bounded: both memos are capped per key, and whole keys are
// evicted LRU beyond maxKeys. The same records are what internal/proofdb
// persists (SnapshotData / Restore / delta sinks).
type VerifyCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	useSeq  uint64 // global LRU clock

	// curRecords/curBytes are the cache's footprint (verdicts, abducts),
	// maintained incrementally by every mutation under vc.mu so Len/Bytes
	// are O(1); bytesHighWater tracks the largest curBytes ever observed
	// (never reset — the capacity-planning gauge the service reports).
	curRecords     int
	curBytes       int64
	bytesHighWater int64

	maxKeys     int
	maxVerdicts int // max verdict memo entries per key

	// Process-lifetime counters (atomics; see Counters).
	keyEvictions  int64
	verdictHits   int64
	verdictMisses int64
	abductHits    int64

	// Persistence counters (internal/proofdb wiring): records restored
	// from a disk snapshot, hits answered by restored memos, and flushes of
	// this cache into a proof store.
	diskVerdictsLoaded int64
	diskVerdictHits    int64
	diskFlushes        int64

	// sinks receive the delta of every live mutation (new verdict, new
	// abduct) — the write-ahead feed a bound ProofDB journals as the facts
	// land, so the crash-loss window is the sync policy's, not the flush
	// interval's. Registered under vc.mu; invoked strictly outside it (a
	// sink appends to a store whose own lock ordering must stay independent
	// of the cache's).
	sinks   []deltaSink
	sinkSeq int64
}

// deltaSink is one registered delta consumer.
type deltaSink struct {
	id int64
	fn func(*proofdb.Snapshot)
}

// Default sizing.
const (
	// Every distinct target cone is its own key, so the LRU must hold a
	// design's worth of cones — the evaluated OoO designs have a few
	// hundred. Worst-case memory stays bounded by the per-key caps below.
	defaultCacheMaxKeys     = 512
	defaultCacheMaxVerdicts = 1 << 16
	// maxAbductsPerTarget caps the subset-abduct memo per (key, target):
	// distinct proven abducts for one target are rare (candidate drift
	// yields near-identical cores), so a small cap bounds the containment
	// scan while keeping every useful answer.
	maxAbductsPerTarget = 8
)

type cacheEntry struct {
	lastUse uint64
	// bytes/records mirror this entry's share of the cache's footprint
	// (verdicts, abducts, key string), maintained by the add paths so
	// whole-key eviction can decrement in O(1).
	bytes   int64
	records int

	verdicts map[verdictKey]verdictVal

	// abducts is the subset-abduct memo: target predicate ID → proven
	// abducts (member ID lists). Unlike the verdict memo it is keyed by the
	// target alone, because a positive answer transfers to every candidate
	// superset of its members (see Learner.abduct). Negative (SAT) verdicts
	// never enter here — they are only meaningful for the exact candidate
	// set, which the verdict memo already covers.
	abducts map[string][]abductRec
}

// abductRec is one remembered proven abduct.
type abductRec struct {
	sig      string   // canonical member signature (sorted IDs) for dedup
	preds    []string // member IDs in solver-returned order
	fromDisk bool     // restored from a persistent proof store
}

// verdictKey identifies one abduction query up to semantics: the target,
// the candidate set (order-independent) and the core-minimization flag.
// Two independent 64-bit FNV hashes make accidental collisions — which
// would be unsound, unlike cone-key collisions — astronomically unlikely.
type verdictKey struct{ a, b uint64 }

type verdictVal struct {
	ok    bool
	preds []string // abduct member IDs (all drawn from the query's candidates)
	// fromDisk marks verdicts restored from a persistent proof store; hits
	// on them are additionally counted as disk hits (the warm-process
	// acceptance metric).
	fromDisk bool
}

// NewVerifyCache returns an empty cache with default bounds.
func NewVerifyCache() *VerifyCache {
	return &VerifyCache{
		entries:     make(map[string]*cacheEntry),
		maxKeys:     defaultCacheMaxKeys,
		maxVerdicts: defaultCacheMaxVerdicts,
	}
}

// sharedCache is the process-global instance used when no explicit
// Options.Cache is supplied.
var sharedCache = NewVerifyCache()

// SharedCache returns the process-global verification cache.
func SharedCache() *VerifyCache { return sharedCache }

// CacheCounters is a snapshot of cache effectiveness counters.
type CacheCounters struct {
	KeyEvictions  int64 // whole keys (both memos) dropped by key-LRU pressure
	VerdictHits   int64 // whole abduction queries answered from the memo
	VerdictMisses int64
	AbductHits    int64 // queries answered by the subset-abduct memo

	// Persistence counters (zero unless a proof store is attached).
	DiskVerdictsLoaded int64 // verdicts and abducts restored from a disk snapshot
	DiskVerdictHits    int64 // hits answered by restored memos
	DiskFlushes        int64 // snapshots of this cache merged into a store

	// Introspection (see Len and Bytes; maintained incrementally).
	Entries     int64 // records held: verdicts + abducts
	ApproxBytes int64 // approximate heap bytes of the memos
	// BytesHighWater is the largest ApproxBytes this cache ever reached —
	// eviction keeps the live figure bounded, so capacity planning needs
	// the peak, not the current value.
	BytesHighWater int64
}

// Counters returns a point-in-time snapshot of the cache counters.
func (vc *VerifyCache) Counters() CacheCounters {
	entries, bytes, hw := vc.footprint()
	return CacheCounters{
		KeyEvictions:  atomic.LoadInt64(&vc.keyEvictions),
		VerdictHits:   atomic.LoadInt64(&vc.verdictHits),
		VerdictMisses: atomic.LoadInt64(&vc.verdictMisses),
		AbductHits:    atomic.LoadInt64(&vc.abductHits),

		DiskVerdictsLoaded: atomic.LoadInt64(&vc.diskVerdictsLoaded),
		DiskVerdictHits:    atomic.LoadInt64(&vc.diskVerdictHits),
		DiskFlushes:        atomic.LoadInt64(&vc.diskFlushes),

		Entries:        int64(entries),
		ApproxBytes:    bytes,
		BytesHighWater: hw,
	}
}

// Len returns the number of records the cache currently holds — memoized
// verdicts and abducts across every key. O(1): the figure is maintained
// incrementally by every mutation.
func (vc *VerifyCache) Len() int {
	n, _, _ := vc.footprint()
	return n
}

// Bytes returns an approximation of the heap footprint of the verdict and
// abduct memos. The estimate counts string payloads plus fixed per-record
// overheads; it exists so eviction behavior is observable, not as an
// accounting guarantee. O(1).
func (vc *VerifyCache) Bytes() int64 {
	_, b, _ := vc.footprint()
	return b
}

// verdictOverhead is the fixed per-record share of the byte estimate (see
// Bytes): verdictKey + verdictVal + map entry share.
const verdictOverhead = 64

// verdictBytes estimates the heap footprint of one memoized verdict.
func verdictBytes(val verdictVal) int64 {
	b := int64(verdictOverhead)
	for _, id := range val.preds {
		b += 16 + int64(len(id))
	}
	return b
}

// abductBytes estimates the heap footprint of one abduct record.
func abductBytes(r abductRec) int64 {
	b := verdictOverhead + int64(len(r.sig))
	for _, id := range r.preds {
		b += 16 + int64(len(id))
	}
	return b
}

// footprint reads the incrementally maintained aggregates under the lock.
func (vc *VerifyCache) footprint() (int, int64, int64) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.curRecords, vc.curBytes, vc.bytesHighWater
}

// creditLocked charges a footprint delta to an entry and the cache-wide
// aggregates, advancing the high-water mark on growth. Caller holds vc.mu.
// Deltas are negative on whole-key eviction.
func (vc *VerifyCache) creditLocked(e *cacheEntry, records int, bytes int64) {
	e.records += records
	e.bytes += bytes
	vc.curRecords += records
	vc.curBytes += bytes
	if vc.curBytes > vc.bytesHighWater {
		vc.bytesHighWater = vc.curBytes
	}
}

// String renders the counters for tool output.
func (vc *VerifyCache) String() string {
	c := vc.Counters()
	s := fmt.Sprintf(
		"verify-cache{verdict hit/miss %d/%d, abduct hits %d, key evictions %d, entries %d (~%dB)",
		c.VerdictHits, c.VerdictMisses, c.AbductHits, c.KeyEvictions, c.Entries, c.ApproxBytes)
	if c.DiskVerdictsLoaded+c.DiskVerdictHits+c.DiskFlushes > 0 {
		s += fmt.Sprintf(", disk loaded %d hits %d flushes %d",
			c.DiskVerdictsLoaded, c.DiskVerdictHits, c.DiskFlushes)
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
	vc.curRecords, vc.curBytes = 0, 0
}

// entryLocked returns (creating if needed) the entry for key and touches
// its LRU clock. Caller holds vc.mu. The clock is stamped before key
// eviction runs, so a brand-new entry is the most recently used key, never
// the victim.
func (vc *VerifyCache) entryLocked(key string) *cacheEntry {
	e, ok := vc.entries[key]
	if !ok {
		e = &cacheEntry{
			verdicts: make(map[verdictKey]verdictVal),
			abducts:  make(map[string][]abductRec),
		}
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
		atomic.AddInt64(&vc.keyEvictions, 1)
		vc.curRecords -= victimE.records
		vc.curBytes -= victimE.bytes
		delete(vc.entries, victim)
	}
}

// --- Verdict memo -----------------------------------------------------------

// verdictKeyFor hashes one abduction query identity. Candidate order is
// canonicalized by sorting IDs; the target is excluded from the candidate
// list by the abduction backends, so its ID participates separately.
func verdictKeyFor(target Pred, cands []Pred, minimize bool) verdictKey {
	ids := make([]string, 0, len(cands))
	for _, c := range cands {
		ids = append(ids, c.ID())
	}
	sort.Strings(ids)
	ha, hb := fnv.New64a(), fnv.New64()
	write := func(s string) {
		ha.Write([]byte(s))
		ha.Write([]byte{0})
		hb.Write([]byte(s))
		hb.Write([]byte{0xff})
	}
	if minimize {
		write("min")
	}
	write(target.ID())
	for _, id := range ids {
		write(id)
	}
	return verdictKey{ha.Sum64(), hb.Sum64()}
}

// lookupVerdict consults the memo and, on a hit, rebuilds the abduct from
// the current candidate instances (IDs are canonical within a fingerprint:
// equal IDs ⇒ semantically identical predicates). The second result
// reports whether the answering memo entry was restored from a persistent
// proof store (a "disk hit").
func (vc *VerifyCache) lookupVerdict(key string, vk verdictKey, target Pred, cands []Pred) (abductResult, bool, bool) {
	vc.mu.Lock()
	e, ok := vc.entries[key]
	if !ok {
		vc.mu.Unlock()
		atomic.AddInt64(&vc.verdictMisses, 1)
		return abductResult{}, false, false
	}
	vc.useSeq++
	e.lastUse = vc.useSeq
	val, ok := e.verdicts[vk]
	vc.mu.Unlock()
	if !ok {
		atomic.AddInt64(&vc.verdictMisses, 1)
		return abductResult{}, false, false
	}
	hit := func() {
		atomic.AddInt64(&vc.verdictHits, 1)
		if val.fromDisk {
			atomic.AddInt64(&vc.diskVerdictHits, 1)
		}
	}
	if !val.ok {
		hit()
		return abductResult{ok: false}, val.fromDisk, true
	}
	byID := make(map[string]Pred, len(cands)+1)
	for _, c := range cands {
		byID[c.ID()] = c
	}
	byID[target.ID()] = target
	preds := make([]Pred, len(val.preds))
	for i, id := range val.preds {
		p, ok := byID[id]
		if !ok {
			// Defensive: treat an unmappable memo entry as a miss rather
			// than fabricating predicates.
			atomic.AddInt64(&vc.verdictMisses, 1)
			return abductResult{}, false, false
		}
		preds[i] = p
	}
	hit()
	return abductResult{preds: preds, ok: true}, val.fromDisk, true
}

// storeVerdict records one computed abduction verdict.
func (vc *VerifyCache) storeVerdict(key string, vk verdictKey, res abductResult) {
	var val verdictVal
	val.ok = res.ok
	if res.ok {
		val.preds = make([]string, len(res.preds))
		for i, p := range res.preds {
			val.preds[i] = p.ID()
		}
	}
	vc.mu.Lock()
	e := vc.entryLocked(key)
	old, exists := e.verdicts[vk]
	if !exists && len(e.verdicts) >= vc.maxVerdicts {
		vc.mu.Unlock()
		return // memo full; favor the working set already present
	}
	if exists {
		vc.creditLocked(e, -1, -verdictBytes(old))
	}
	e.verdicts[vk] = val
	vc.creditLocked(e, 1, verdictBytes(val))
	sinks := vc.sinksLocked()
	vc.mu.Unlock()

	emitDelta(sinks, proofdb.KeyRecord{Key: key, Verdicts: []proofdb.Verdict{{
		A: vk.a, B: vk.b, OK: val.ok,
		Preds: append([]string(nil), val.preds...),
	}}})
}

// --- Subset-abduct memo -----------------------------------------------------

// abductSig canonicalizes an abduct's member-ID list (order-independent).
func abductSig(ids []string) string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	var b []byte
	for _, id := range sorted {
		b = append(b, id...)
		b = append(b, 0)
	}
	return string(b)
}

// lookupAbduct consults the subset-abduct memo: a remembered proven abduct
// for target whose members all appear in cands (or are the target itself)
// answers the query regardless of what else cands contains. When several
// remembered abducts qualify the smallest is returned — fewer members mean
// fewer downstream proof obligations. The second result reports whether the
// answering record was restored from a persistent proof store.
func (vc *VerifyCache) lookupAbduct(key string, target Pred, cands []Pred) ([]Pred, bool, bool) {
	byID := make(map[string]Pred, len(cands)+1)
	for _, c := range cands {
		byID[c.ID()] = c
	}
	byID[target.ID()] = target

	vc.mu.Lock()
	e, ok := vc.entries[key]
	if !ok {
		vc.mu.Unlock()
		return nil, false, false
	}
	vc.useSeq++
	e.lastUse = vc.useSeq
	var best *abductRec
	for i := range e.abducts[target.ID()] {
		r := &e.abducts[target.ID()][i]
		contained := true
		for _, id := range r.preds {
			if _, ok := byID[id]; !ok {
				contained = false
				break
			}
		}
		if !contained {
			continue
		}
		if best == nil || len(r.preds) < len(best.preds) {
			best = r
		}
	}
	if best == nil {
		vc.mu.Unlock()
		return nil, false, false
	}
	ids := append([]string(nil), best.preds...)
	fromDisk := best.fromDisk
	vc.mu.Unlock()

	preds := make([]Pred, len(ids))
	for i, id := range ids {
		preds[i] = byID[id]
	}
	atomic.AddInt64(&vc.abductHits, 1)
	if fromDisk {
		atomic.AddInt64(&vc.diskVerdictHits, 1)
	}
	return preds, fromDisk, true
}

// storeAbduct records one solver-proven abduct for target.
func (vc *VerifyCache) storeAbduct(key string, target Pred, res abductResult) {
	if !res.ok {
		return
	}
	ids := make([]string, len(res.preds))
	for i, p := range res.preds {
		ids[i] = p.ID()
	}
	vc.mu.Lock()
	e := vc.entryLocked(key)
	added := e.addAbductLocked(target.ID(), ids, false)
	if added {
		recs := e.abducts[target.ID()]
		vc.creditLocked(e, 1, abductBytes(recs[len(recs)-1]))
	}
	var sinks []func(*proofdb.Snapshot)
	if added {
		sinks = vc.sinksLocked()
	}
	vc.mu.Unlock()

	if added {
		emitDelta(sinks, proofdb.KeyRecord{Key: key, Abducts: []proofdb.Abduct{{
			Target: target.ID(),
			Preds:  append([]string(nil), ids...),
		}}})
	}
}

// addAbductLocked dedups and appends one abduct record; reports whether it
// was new. Caller holds vc.mu (via entryLocked).
func (e *cacheEntry) addAbductLocked(targetID string, ids []string, fromDisk bool) bool {
	recs := e.abducts[targetID]
	if len(recs) >= maxAbductsPerTarget {
		return false
	}
	sig := abductSig(ids)
	for _, r := range recs {
		if r.sig == sig {
			return false
		}
	}
	e.abducts[targetID] = append(recs, abductRec{
		sig:      sig,
		preds:    append([]string(nil), ids...),
		fromDisk: fromDisk,
	})
	return true
}

// --- Persistence (internal/proofdb exchange) --------------------------------

// SnapshotData exports the cache — the per-key verdict and abduct memos —
// as a portable proofdb snapshot. Keys are emitted in sorted order, so equal
// cache contents serialize identically. Safe to call concurrently with
// learners using the cache: the snapshot is assembled under the cache lock.
func (vc *VerifyCache) SnapshotData() *proofdb.Snapshot {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	keys := make([]string, 0, len(vc.entries))
	for k := range vc.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := &proofdb.Snapshot{}
	for _, k := range keys {
		e := vc.entries[k]
		kr := proofdb.KeyRecord{Key: k}
		vks := make([]verdictKey, 0, len(e.verdicts))
		for vk := range e.verdicts {
			vks = append(vks, vk)
		}
		sort.Slice(vks, func(i, j int) bool {
			if vks[i].a != vks[j].a {
				return vks[i].a < vks[j].a
			}
			return vks[i].b < vks[j].b
		})
		for _, vk := range vks {
			val := e.verdicts[vk]
			kr.Verdicts = append(kr.Verdicts, proofdb.Verdict{
				A: vk.a, B: vk.b, OK: val.ok,
				Preds: append([]string(nil), val.preds...),
			})
		}
		tids := make([]string, 0, len(e.abducts))
		for tid := range e.abducts {
			tids = append(tids, tid)
		}
		sort.Strings(tids)
		for _, tid := range tids {
			recs := append([]abductRec(nil), e.abducts[tid]...)
			sort.Slice(recs, func(i, j int) bool { return recs[i].sig < recs[j].sig })
			for _, r := range recs {
				kr.Abducts = append(kr.Abducts, proofdb.Abduct{
					Target: tid,
					Preds:  append([]string(nil), r.preds...),
				})
			}
		}
		if len(kr.Verdicts)+len(kr.Abducts) > 0 {
			snap.Keys = append(snap.Keys, kr)
		}
	}
	return snap
}

// Restore merges a proofdb snapshot into the cache: verdicts and abducts
// are installed where absent, marked as disk-restored so hits on them are
// observable (CacheCounters.DiskVerdictHits, Stats.CacheDiskHits). In-memory
// entries always win over restored ones: a verdict this process computed is
// at least as fresh as anything on disk. Restoring more keys than the
// cache's key budget LRU-evicts the earliest restored ones, exactly as live
// insertion would. Returns the number of records (exact verdicts plus cone
// abducts) admitted.
func (vc *VerifyCache) Restore(s *proofdb.Snapshot) (verdicts int) {
	if s == nil {
		return 0
	}
	vc.mu.Lock()
	for _, kr := range s.Keys {
		if len(kr.Verdicts)+len(kr.Abducts) == 0 {
			continue
		}
		e := vc.entryLocked(kr.Key)
		for _, v := range kr.Verdicts {
			vk := verdictKey{a: v.A, b: v.B}
			if _, exists := e.verdicts[vk]; exists {
				continue
			}
			if len(e.verdicts) >= vc.maxVerdicts {
				continue
			}
			val := verdictVal{
				ok:       v.OK,
				preds:    append([]string(nil), v.Preds...),
				fromDisk: true,
			}
			e.verdicts[vk] = val
			vc.creditLocked(e, 1, verdictBytes(val))
			verdicts++
		}
		for _, a := range kr.Abducts {
			if a.Target == "" {
				continue
			}
			if e.addAbductLocked(a.Target, a.Preds, true) {
				recs := e.abducts[a.Target]
				vc.creditLocked(e, 1, abductBytes(recs[len(recs)-1]))
				verdicts++
			}
		}
	}
	vc.mu.Unlock()
	atomic.AddInt64(&vc.diskVerdictsLoaded, int64(verdicts))
	return verdicts
}

// noteDiskFlush counts one merge of this cache into a persistent store.
func (vc *VerifyCache) noteDiskFlush() { atomic.AddInt64(&vc.diskFlushes, 1) }

// addDeltaSink registers fn to receive every future delta and returns its
// removal function. Restores from disk are not replayed into
// sinks (the store already holds them); only live derivations flow.
func (vc *VerifyCache) addDeltaSink(fn func(*proofdb.Snapshot)) (remove func()) {
	vc.mu.Lock()
	vc.sinkSeq++
	id := vc.sinkSeq
	vc.sinks = append(vc.sinks, deltaSink{id: id, fn: fn})
	vc.mu.Unlock()
	return func() {
		vc.mu.Lock()
		for i, s := range vc.sinks {
			if s.id == id {
				vc.sinks = append(vc.sinks[:i], vc.sinks[i+1:]...)
				break
			}
		}
		vc.mu.Unlock()
	}
}

// sinksLocked snapshots the registered sink functions (nil when none).
// Caller holds vc.mu; the returned copy is safe to invoke after unlocking.
func (vc *VerifyCache) sinksLocked() []func(*proofdb.Snapshot) {
	if len(vc.sinks) == 0 {
		return nil
	}
	fns := make([]func(*proofdb.Snapshot), len(vc.sinks))
	for i, s := range vc.sinks {
		fns[i] = s.fn
	}
	return fns
}

// emitDelta delivers one key's delta to the given sinks. Must be called
// with vc.mu released: sinks do I/O and take their own locks.
func emitDelta(sinks []func(*proofdb.Snapshot), kr proofdb.KeyRecord) {
	if len(sinks) == 0 {
		return
	}
	s := &proofdb.Snapshot{Keys: []proofdb.KeyRecord{kr}}
	for _, fn := range sinks {
		fn(s)
	}
}
