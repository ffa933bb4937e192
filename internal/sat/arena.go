package sat

// Flat clause arena. Clause storage is a single []uint32 slab: a clauseRef
// is an offset into the slab, so propagate() walks contiguous memory with
// no pointer chasing and clause allocation is an append with near-zero GC
// pressure (the slab is one object regardless of clause count).
//
// Layout of one clause at offset cr:
//
//	word cr+0          header: size / flags / LBD (see bit layout below)
//	word cr+1          [learnt only] activity slot: index into claAct
//	words cr+1+x ...   the literals (x = 1 for learnt, 0 for problem)
//
// Header bit layout:
//
//	bit  0      learnt
//	bit  1      unused
//	bit  2      deleted (lazily reclaimed by garbageCollect)
//	bits 3..12  LBD (literal block distance, saturated at lbdMax)
//	bits 13..30 size (number of literals)
//	bit 31      forwarding flag, used only inside garbageCollect
//
// Learnt-clause activities live in the claAct side-array (indexed by the
// clause's activity slot, recycled through claFree) so the header stays one
// word and the reduceDB sort touches a dense float array.
//
// Deleted clauses keep their header and body in place (walkable; see
// forEachClause) until garbageCollect compacts the slab, rewriting every
// clauseRef held by the watch lists, the learnt index and the reason array
// via forwarding pointers stored in the old headers.

type clauseRef uint32

// crUndef is the null clause reference; offset 0 of the arena holds a
// sentinel word so no real clause lives there.
const crUndef clauseRef = 0

const (
	hdrLearnt    = uint32(1) << 0
	hdrDeleted   = uint32(1) << 2
	hdrLBDShift  = 3
	hdrLBDMask   = uint32(1)<<10 - 1
	hdrSizeShift = 13
	hdrForward   = uint32(1) << 31

	// lbdMax saturates stored LBD values at 10 bits.
	lbdMax = int(hdrLBDMask)
	// maxClauseSize is the largest representable clause (18 size bits; bit
	// 31 is reserved for GC forwarding).
	maxClauseSize = 1<<18 - 1
)

func mkHeader(size int, learnt bool, lbd int) uint32 {
	if size > maxClauseSize {
		panic("sat: clause exceeds maximum arena clause size")
	}
	if lbd > lbdMax {
		lbd = lbdMax
	}
	h := uint32(size) << hdrSizeShift
	h |= uint32(lbd) << hdrLBDShift
	if learnt {
		h |= hdrLearnt
	}
	return h
}

func (s *Solver) clauseSize(cr clauseRef) int {
	return int((s.arena[cr] &^ hdrForward) >> hdrSizeShift)
}

// clauseLits returns the literal body of a clause as a view into the arena.
// The slice aliases solver memory: it is invalidated by any clause
// allocation or compaction.
func (s *Solver) clauseLits(cr clauseRef) []uint32 {
	h := s.arena[cr]
	start := int(cr) + 1 + int(h&hdrLearnt)
	return s.arena[start : start+int(h>>hdrSizeShift)]
}

func (s *Solver) isLearnt(cr clauseRef) bool { return s.arena[cr]&hdrLearnt != 0 }

func (s *Solver) clauseLBD(cr clauseRef) int {
	return int((s.arena[cr] >> hdrLBDShift) & hdrLBDMask)
}

// clauseWords is the total slab footprint of the clause at cr.
func (s *Solver) clauseWords(cr clauseRef) int {
	h := s.arena[cr]
	return 1 + int(h&hdrLearnt) + int(h>>hdrSizeShift)
}

func (s *Solver) clauseAct(cr clauseRef) float32 { return s.claAct[s.arena[cr+1]] }

// allocActSlot hands out a free activity slot, recycling retired ones.
func (s *Solver) allocActSlot() uint32 {
	if n := len(s.claFree); n > 0 {
		slot := s.claFree[n-1]
		s.claFree = s.claFree[:n-1]
		s.claAct[slot] = 0
		return slot
	}
	s.claAct = append(s.claAct, 0)
	return uint32(len(s.claAct) - 1)
}

// markDeleted flags a clause dead (its slab words become reclaimable waste)
// and recycles its activity slot. The caller must already have detached it
// from the watch lists; learnt-index compaction is the caller's business.
func (s *Solver) markDeleted(cr clauseRef) {
	if s.arena[cr]&hdrDeleted != 0 {
		return
	}
	if s.arena[cr]&hdrLearnt != 0 {
		s.claFree = append(s.claFree, s.arena[cr+1])
	} else {
		s.liveProblem--
	}
	s.arena[cr] |= hdrDeleted
	s.wasted += s.clauseWords(cr)
	s.Stats.Deleted++
}

// forEachClause walks the slab and calls fn for every live clause, in
// allocation order. fn must not allocate or delete clauses.
func (s *Solver) forEachClause(fn func(cr clauseRef)) {
	for off := 1; off < len(s.arena); {
		h := s.arena[off]
		if h&hdrDeleted == 0 {
			fn(clauseRef(off))
		}
		off += 1 + int(h&hdrLearnt) + int(h>>hdrSizeShift)
	}
}

// maybeCollect compacts the slab when at least a quarter of it is dead
// weight. Must run at decision level 0 with consistent watch lists.
func (s *Solver) maybeCollect() {
	if len(s.arena) > 4096 && s.wasted*4 >= len(s.arena) {
		s.garbageCollect()
	}
}

// garbageCollect rebuilds the arena with only the live clauses (arena
// compaction; Solve reaches it through maybeCollect at restart boundaries
// every collectInterval conflicts). Every live clause is reachable from
// the watch lists (all stored clauses have >= 2 literals), so the watch
// sweep both relocates clauses and rewrites watcher refs; the
// learnt index and reason array are then remapped through the forwarding
// pointers left in the old headers. Watch lists that grew far beyond their
// live population are reallocated at size, returning the slack to the Go
// heap. The retired slab is kept as scratch for the next compaction. It
// settles first, so pending clauses are on the watch lists too.
func (s *Solver) garbageCollect() {
	s.settle()
	old := s.arena
	neu := s.gcArena
	if cap(neu) < len(old)-s.wasted {
		neu = make([]uint32, 0, len(old)-s.wasted)
	}
	neu = append(neu[:0], 0) // sentinel at offset 0

	move := func(cr clauseRef) clauseRef {
		h := old[cr]
		if h&hdrForward != 0 {
			return clauseRef(h &^ hdrForward)
		}
		total := 1 + int(h&hdrLearnt) + int(h>>hdrSizeShift)
		ncr := clauseRef(len(neu))
		neu = append(neu, old[int(cr):int(cr)+total]...)
		old[cr] = hdrForward | uint32(ncr)
		return ncr
	}

	for p := range s.watches {
		ws := s.watches[p]
		for i := range ws {
			tag := ws[i].cref & watchBinary
			ws[i].cref = move(ws[i].cref&^watchBinary) | tag
		}
		// Shrink over-capacity watch lists: removeWatch and the propagate
		// sweep only ever truncate, so capacity grown in a hot phase was
		// previously pinned forever.
		if cap(ws) >= 16 && cap(ws) >= 2*len(ws) {
			s.watches[p] = append(make([]watcher, 0, len(ws)), ws...)
		}
	}
	for i, cr := range s.learnts {
		s.learnts[i] = move(cr)
	}
	for v := range s.reason {
		if s.reason[v] != crUndef {
			s.reason[v] = move(s.reason[v])
		}
	}

	s.gcArena = old[:0]
	s.arena = neu
	s.wasted = 0
	s.Stats.Compactions++
}
