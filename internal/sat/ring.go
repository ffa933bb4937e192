package sat

import "sync/atomic"

// Lock-free mid-run clause exchange. Each worker's solver owns one
// ShareRing as its producer and drains its siblings' rings at restart
// boundaries, so hot lemmas cross the predicate fan-out while a Learn is
// still running.
//
// Protocol (single producer, any number of consumers, overwrite-oldest):
//
//   - A slot holds an immutable, position-tagged entry behind an
//     atomic.Pointer. Publish builds a fresh entry — nothing reachable from
//     a published entry is ever written again — stores it into
//     slots[pos%len], then advances head. Only the producer goroutine may
//     call Publish.
//   - Consumers keep a private RingCursor. Drain reads head once, jumps the
//     cursor forward if the producer lapped it (overwritten entries are
//     silently lost: the ring is a best-effort hint channel, not a queue),
//     then loads each slot and delivers entries whose position tag matches
//     the cursor. A mismatched tag means the slot was overwritten between
//     the head read and the slot read — skipped, never torn.
//
// Memory-ordering argument: Go's sync/atomic operations are sequentially
// consistent. On the producer, the slot Store precedes the head Store in
// program order, so any consumer that observes head > pos also observes the
// slot write for pos (or a later one — detected by the position tag). The
// entry itself is safely published because the Store of its pointer
// happens-before any Load that returns it, and the entry is never mutated
// afterwards. Consumers must treat delivered values as read-only: a payload
// slice is shared by every consumer that drains it (the clausering hhlint
// pass enforces this discipline at the call sites).
//
// hhlint:clause-ring
type ShareRing[T any] struct {
	slots []atomic.Pointer[ringSlot[T]]
	head  atomic.Uint64 // next position to publish; monotone
}

// ringSlot is one published entry. pos tags which logical position the
// entry was published at, so a consumer can detect overwrites.
type ringSlot[T any] struct {
	pos uint64
	val T
}

// NewShareRing returns a ring with the given slot count (minimum 1). The
// capacity bounds memory, not throughput: a producer never blocks, it
// overwrites the oldest entry.
func NewShareRing[T any](size int) *ShareRing[T] {
	if size < 1 {
		size = 1
	}
	return &ShareRing[T]{slots: make([]atomic.Pointer[ringSlot[T]], size)}
}

// Publish appends v to the ring, overwriting the oldest entry when full.
// Single-producer: only the owning goroutine may call Publish; the entry
// (including everything reachable from v) must not be mutated afterwards.
func (r *ShareRing[T]) Publish(v T) {
	pos := r.head.Load()
	r.slots[pos%uint64(len(r.slots))].Store(&ringSlot[T]{pos: pos, val: v})
	r.head.Store(pos + 1)
}

// Published returns the number of Publish calls so far (monotone; entries
// may already be overwritten).
func (r *ShareRing[T]) Published() uint64 { return r.head.Load() }

// RingCursor is one consumer's private drain position. The zero value
// starts at the beginning of the stream. Not safe for concurrent use —
// each consumer owns its cursor.
type RingCursor struct {
	next uint64
}

// Drain delivers, in publish order, every entry published since the
// cursor's previous visit and still live in the ring. Overwritten entries
// are skipped (overwrite-oldest). fn must not retain or mutate v beyond
// the call unless it copies; returning false stops the drain early (the
// remaining entries stay pending for the next Drain) — the cancellation
// path for interrupt-aware consumers.
func (r *ShareRing[T]) Drain(cur *RingCursor, fn func(v T) bool) {
	h := r.head.Load()
	n := uint64(len(r.slots))
	if cur.next+n < h {
		cur.next = h - n // producer lapped this consumer: jump to the oldest live entry
	}
	for ; cur.next < h; cur.next++ {
		e := r.slots[cur.next%n].Load()
		if e == nil || e.pos != cur.next {
			continue // overwritten between the head read and the slot read
		}
		if !fn(e.val) {
			cur.next++
			return
		}
	}
}
