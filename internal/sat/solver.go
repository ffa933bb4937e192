package sat

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"hhoudini/internal/faultinject"
)

// Stats aggregates solver counters across Solve calls.
type Stats struct {
	Solves       int64
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Deleted      int64
	// ClausesAdded counts AddClause calls accepted into the database
	// (including units and clauses later simplified away) — the raw
	// encode-work measure behind the incremental-backend ablation.
	ClausesAdded int64
	// VarsAdded counts allocated variables (monotone; equals NumVars).
	VarsAdded int64
	// Compactions counts arena garbage collections (see arena.go).
	Compactions int64
}

// watcher is one two-watched-literal entry. cref carries the watchBinary
// tag for binary clauses: their other literal is always the blocker, so
// propagation resolves them from the watch list alone, never touching the
// arena.
type watcher struct {
	cref    clauseRef
	blocker Lit
}

// watchBinary tags a watcher whose clause has exactly two literals.
const watchBinary = clauseRef(1) << 31

// Solver is an incremental CDCL SAT solver. The zero value is not usable;
// construct with New. A Solver is not safe for concurrent use; parallel
// callers each build their own Solver (queries in this repository are
// independent, mirroring the paper's per-task solver processes).
type Solver struct {
	// arena is the flat clause slab (see arena.go); wasted counts its dead
	// words, liveProblem its live problem clauses. claAct is the learnt
	// activity side-array (claFree recycles its slots); gcArena is the
	// scratch slab the compactor double-buffers into.
	arena       []uint32
	wasted      int
	liveProblem int
	claAct      []float32
	claFree     []uint32
	gcArena     []uint32

	learnts  []clauseRef
	watches  [][]watcher // indexed by Lit
	vals     []lbool     // the assignment, indexed by Lit (see valueLit)
	polarity []bool      // saved phase per Var; true = assign false next time
	level    []int32
	reason   []clauseRef
	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	claInc   float64
	order    varHeap

	// pending lists the problem clauses in the arena that are not on the
	// watch lists yet (see settle).
	pending []clauseRef

	seen         []byte
	stampLevel   []int64
	stampCtr     int64
	analyzeStack []Lit
	learntBuf    []Lit // reusable conflict-clause buffer (see analyze)
	toClear      []Lit

	ok          bool    // false once the clause DB is UNSAT at level 0
	model       []lbool // copy of vals at the last Sat; empty when there is none
	addBuf      []Lit   // reusable AddClause normalisation buffer
	core        []Lit
	assumptions []Lit

	maxLearnts      float64
	learntAdjustCt  int64
	learntAdjustIvl float64 // current adjustment interval, grows by adjustInc

	// lastCollect remembers Stats.Conflicts at the previous compaction
	// check (see Solve).
	lastCollect int64

	// MaxConflicts bounds the search effort; <0 means unlimited. When the
	// budget is exhausted Solve returns Unknown. The comparison is against
	// the cumulative Stats.Conflicts counter, so set it on a fresh solver.
	MaxConflicts int64

	// stop is the cooperative cancellation flag ShareStop installs; nil
	// means the solver is never stopped. The CDCL search loop polls it once
	// per decision/conflict iteration and abandons the Solve call with
	// Unknown once it is set. The flag is sticky: one set before Solve stops
	// it before it searches.
	stop *atomic.Bool

	Stats Stats
}

// New returns an empty solver with no variables and no clauses.
func New() *Solver {
	s := &Solver{
		arena:        make([]uint32, 1, 1024), // offset 0 is the crUndef sentinel
		ok:           true,
		varInc:       1.0,
		claInc:       1.0,
		MaxConflicts: -1,
	}
	return s
}

const (
	varDecay        = 0.95
	claDecay        = 0.999
	restartFirst    = 100
	learntFactor    = 1.0 / 3.0
	learntIncFactor = 1.1
	adjustStart     = 100
	adjustInc       = 1.5

	// glueLBD: learnt clauses at or below this LBD are never deleted by
	// reduceDB ("glue" clauses in Glucose terminology).
	glueLBD = 2

	// collectInterval is the number of conflicts between arena compaction
	// checks at restart boundaries; small queries never reach it.
	collectInterval = 10000
)

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.vals) >> 1 }

// NewVar allocates a fresh variable. Only its value slot is made here; its
// other per-variable slots wait for settle.
func (s *Solver) NewVar() Var {
	v := Var(s.NumVars())
	s.Stats.VarsAdded++
	s.vals = append(s.vals, lUndef, lUndef)
	return v
}

// settle brings the search state up to the variables and clauses added
// since its last call: it extends every per-variable slice to the variable
// count in one step and attaches the pending clauses, growing each watch
// list once, for all its new watchers, from one shared slab. A solver
// serves one query and is built by thousands of NewVar and AddClause calls
// before it first propagates; growing these slices call by call left
// several times their final size behind as garbage. settle runs before
// anything reads that state — a unit clause's propagation and every Solve
// — and inserts the variables and appends the watchers in the order the
// calls came, so the heap, the watch lists and every propagation and
// decision are the ones immediate attachment gave.
func (s *Solver) settle() {
	if old, n := len(s.level), s.NumVars(); old < n {
		s.polarity = extend(s.polarity, n, true)
		s.level = extend(s.level, n, 0)
		s.reason = extend(s.reason, n, crUndef)
		s.activity = extend(s.activity, n, 0)
		s.seen = extend(s.seen, n, 0)
		s.watches = extend(s.watches, 2*n, nil)
		s.order.reserve(n)
		for v := old; v < n; v++ {
			s.order.insert(Var(v), 0)
		}
	}
	if len(s.pending) == 0 {
		return
	}
	// need[l] counts the new watchers of l; a list short of room for them
	// gets it from the slab.
	need := make([]int32, len(s.watches))
	for _, cr := range s.pending {
		lits := s.clauseLits(cr)
		need[Lit(lits[0]).Not()]++
		need[Lit(lits[1]).Not()]++
	}
	total := 0
	for l, k := range need {
		if ws := s.watches[l]; cap(ws)-len(ws) < int(k) {
			total += len(ws) + int(k)
		}
	}
	slab := make([]watcher, 0, total)
	for l, k := range need {
		if ws := s.watches[l]; cap(ws)-len(ws) < int(k) {
			n := len(slab)
			slab = append(slab, ws...)
			s.watches[l] = slab[n : len(slab) : len(slab)+int(k)]
			slab = slab[:len(slab)+int(k)]
		}
	}
	for _, cr := range s.pending {
		s.attachClause(cr)
	}
	s.pending = s.pending[:0]
}

// withRoom returns s with capacity for n elements, reallocating at most
// once and then leaving half as much room again: an abduction query
// settles at its target's unit clauses and again at Solve, and its
// candidates' variables then fit without a second copy.
func withRoom[T any](s []T, n int) []T {
	if cap(s) < n {
		s = slices.Grow(s, n+n/2-len(s))
	}
	return s
}

// extend returns s lengthened to n, new elements set to fill (withRoom).
func extend[T any](s []T, n int, fill T) []T {
	s = withRoom(s, n)
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}

// NewSelector allocates a fresh activation (selector) variable and returns
// its positive literal. A clause (¬sel ∨ C) guarded by it is active only in
// Solve calls that assume sel, which is how an UNSAT core names the guarded
// clauses it used. The saved phase of a fresh variable prefers false, so
// selectors that are not assumed fall away without search effort.
func (s *Solver) NewSelector() Lit { return PosLit(s.NewVar()) }

// ensureVar allocates variables up to and including v.
func (s *Solver) ensureVar(v Var) {
	for Var(s.NumVars()) <= v {
		s.NewVar()
	}
}

// valueLit is one load: the assignment is stored per literal, so there is
// no sign fix-up in the propagation loop. vals is the only record of the
// assignment; uncheckedEnqueue and cancelUntil write both literals of a
// variable together, and a variable's value is that of its positive
// literal.
func (s *Solver) valueLit(l Lit) lbool { return s.vals[l] }

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// AddClause adds a clause to the solver. It returns false if the clause
// database became trivially unsatisfiable (at decision level 0). Literals
// over unallocated variables allocate them implicitly. Must be called at
// decision level 0 (i.e. not from within a Solve callback).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called above decision level 0")
	}
	s.Stats.ClausesAdded++
	// Normalize: sort, remove duplicates, detect tautologies, drop literals
	// already false at level 0, and succeed early if already satisfied.
	// The work happens in a buffer the solver keeps; allocClause copies the
	// result into the arena.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	for _, l := range ls {
		if l < 0 {
			panic("sat: undefined literal in clause")
		}
		s.ensureVar(l.Var())
	}
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		switch {
		case s.valueLit(l) == lTrue || l == prev.Not():
			return true // satisfied or tautology
		case s.valueLit(l) == lFalse || l == prev:
			continue // falsified at level 0 or duplicate
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.settle()
		s.uncheckedEnqueue(out[0], crUndef)
		s.ok = s.propagate() == crUndef
		return s.ok
	}
	s.pending = append(s.pending, s.allocClause(out, false, 0))
	return true
}

// allocClause appends a clause to the arena. For learnt clauses lbd is the
// literal block distance computed at learn time; problem clauses pass 0.
func (s *Solver) allocClause(lits []Lit, learnt bool, lbd int) clauseRef {
	cr := clauseRef(len(s.arena))
	if need := len(s.arena) + 2 + len(lits); need > cap(s.arena) {
		// Double: past 256 elements append grows by ~1.25×, which leaves
		// about three times the slab's final size behind as garbage.
		s.arena = slices.Grow(s.arena, max(need, 2*cap(s.arena))-len(s.arena))
	}
	s.arena = append(s.arena, mkHeader(len(lits), learnt, lbd))
	if learnt {
		s.arena = append(s.arena, s.allocActSlot())
	}
	for _, l := range lits {
		s.arena = append(s.arena, uint32(l))
	}
	if learnt {
		s.learnts = append(s.learnts, cr)
		s.Stats.Learnt++
	} else {
		s.liveProblem++
	}
	return cr
}

func (s *Solver) attachClause(cr clauseRef) {
	lits := s.clauseLits(cr)
	tag := clauseRef(0)
	if len(lits) == 2 {
		tag = watchBinary
	}
	l0, l1 := Lit(lits[0]), Lit(lits[1])
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{cr | tag, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{cr | tag, l0})
}

func (s *Solver) detachClause(cr clauseRef) {
	lits := s.clauseLits(cr)
	s.removeWatch(Lit(lits[0]).Not(), cr)
	s.removeWatch(Lit(lits[1]).Not(), cr)
}

func (s *Solver) removeWatch(l Lit, cr clauseRef) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].cref&^watchBinary == cr {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, from clauseRef) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the two-watched-literal scheme.
// It returns the conflicting clause reference, or crUndef.
//
// Binary clauses resolve entirely from the watcher (the blocker is the
// other literal); longer clauses are walked in place in the arena.
func (s *Solver) propagate() clauseRef {
	confl := crUndef
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		i, j := 0, 0
	nextWatcher:
		for i < len(ws) {
			w := ws[i]
			// Blocker check: clause already satisfied. The value is loaded
			// once and shared with the binary fast path below.
			bv := s.valueLit(w.blocker)
			if bv == lTrue {
				ws[j] = w
				i++
				j++
				continue
			}
			if w.cref&watchBinary != 0 {
				// Binary clause: the blocker is the only other literal.
				i++
				ws[j] = w
				j++
				if bv == lFalse {
					confl = w.cref &^ watchBinary
					s.qhead = len(s.trail)
					for i < len(ws) {
						ws[j] = ws[i]
						i++
						j++
					}
					break
				}
				s.uncheckedEnqueue(w.blocker, w.cref&^watchBinary)
				continue
			}
			cr := w.cref
			h := s.arena[cr]
			start := int(cr) + 1 + int(h&hdrLearnt)
			lits := s.arena[start : start+int(h>>hdrSizeShift)]
			// Make sure the false literal is lits[1].
			if Lit(lits[0]) == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			i++
			first := Lit(lits[0])
			if first != w.blocker && s.valueLit(first) == lTrue {
				ws[j] = watcher{cr, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.valueLit(Lit(lits[k])) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nl := Lit(lits[1]).Not()
					s.watches[nl] = append(s.watches[nl], watcher{cr, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{cr, first}
			j++
			if s.valueLit(first) == lFalse {
				confl = cr
				s.qhead = len(s.trail)
				// Copy remaining watchers back.
				for i < len(ws) {
					ws[j] = ws[i]
					i++
					j++
				}
				break
			}
			s.uncheckedEnqueue(first, cr)
		}
		s.watches[p] = ws[:j]
		if confl != crUndef {
			break
		}
	}
	return confl
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	end := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= int(end); i-- {
		l := s.trail[i]
		v := l.Var()
		s.vals[l] = lUndef
		s.vals[l^1] = lUndef
		s.polarity[v] = l.Neg()
		s.reason[v] = crUndef
		s.order.insert(v, s.activity[v])
	}
	s.trail = s.trail[:end]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, int32(len(s.trail))) }

func (s *Solver) varBumpActivity(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.order.rescale(1e-100)
		s.varInc *= 1e-100
	}
	s.order.decreased(v, s.activity[v])
}

func (s *Solver) claBumpActivity(cr clauseRef) {
	slot := s.arena[cr+1]
	s.claAct[slot] += float32(s.claInc)
	if s.claAct[slot] > 1e20 {
		// Rescaling the whole side-array touches retired slots too; they
		// hold stale values nobody reads, so that is harmless.
		for i := range s.claAct {
			s.claAct[i] *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// computeLBD returns the literal block distance of a clause: the number of
// distinct decision levels among its literals (Glucose's glue metric). Low
// LBD predicts reuse — such clauses chain propagations across few decision
// boundaries — so it drives learnt-DB reduction.
func (s *Solver) computeLBD(lits []Lit) int {
	s.stampCtr++
	n := 0
	for _, l := range lits {
		lv := s.level[l.Var()]
		if lv == 0 {
			continue
		}
		for int(lv) >= len(s.stampLevel) {
			s.stampLevel = append(s.stampLevel, 0)
		}
		if s.stampLevel[lv] != s.stampCtr {
			s.stampLevel[lv] = s.stampCtr
			n++
		}
	}
	return n
}

// reasonLits returns the body of p's reason clause with the invariant
// lits[0] == p restored. The long-clause propagation path always enqueues
// lits[0], but the binary fast path enqueues the blocker without touching
// the arena, so a binary reason may have p at position 1 — swapping the two
// watched positions is always safe.
func (s *Solver) reasonLits(p Lit, cr clauseRef) []uint32 {
	lits := s.clauseLits(cr)
	if Lit(lits[0]) != p {
		lits[0], lits[1] = lits[1], lits[0]
	}
	return lits
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backjump level.
func (s *Solver) analyze(confl clauseRef) ([]Lit, int32) {
	// The learnt clause is assembled in a reusable buffer: every caller
	// copies the literals out (into the arena, or through the export hook)
	// before the next conflict. Slot 0 is reserved for the asserting literal.
	learnt := append(s.learntBuf[:0], LitUndef)
	pathC := 0
	p := LitUndef
	idx := len(s.trail) - 1

	for {
		if s.isLearnt(confl) {
			s.claBumpActivity(confl)
		}
		var lits []uint32
		start := 0
		if p != LitUndef {
			lits = s.reasonLits(p, confl)
			start = 1
		} else {
			lits = s.clauseLits(confl)
		}
		for _, qw := range lits[start:] {
			q := Lit(qw)
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.varBumpActivity(v)
				s.seen[v] = 1
				if s.level[v] >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Next literal to resolve on.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Conflict-clause minimization: drop literals implied by the rest.
	s.toClear = s.toClear[:0]
	for _, l := range learnt {
		s.toClear = append(s.toClear, l)
		s.seen[l.Var()] = 1
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		l := learnt[i]
		if s.reason[l.Var()] == crUndef || !s.litRedundant(l) {
			learnt[j] = l
			j++
		}
	}
	learnt = learnt[:j]
	for _, l := range s.toClear {
		s.seen[l.Var()] = 0
	}

	// Find the backjump level: the second-highest level in the clause.
	btLevel := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	s.learntBuf = learnt
	return learnt, btLevel
}

// litRedundant checks whether l is implied by the other literals currently
// marked in seen (standard recursive minimization, iterative form).
func (s *Solver) litRedundant(l Lit) bool {
	s.analyzeStack = s.analyzeStack[:0]
	s.analyzeStack = append(s.analyzeStack, l)
	top := len(s.toClear)
	for len(s.analyzeStack) > 0 {
		p := s.analyzeStack[len(s.analyzeStack)-1]
		s.analyzeStack = s.analyzeStack[:len(s.analyzeStack)-1]
		cr := s.reason[p.Var()]
		if cr == crUndef {
			// Shouldn't happen for stack entries, defensive.
			return false
		}
		// Stack entries are the falsified occurrences (as they appear in
		// learnt/reason bodies), so the literal the reason clause implied
		// is p.Not() — that is what belongs at position 0.
		lits := s.reasonLits(p.Not(), cr)
		for _, qw := range lits[1:] {
			q := Lit(qw)
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == crUndef {
				// Decision var not in the learnt set: l is not redundant.
				for len(s.toClear) > top {
					s.seen[s.toClear[len(s.toClear)-1].Var()] = 0
					s.toClear = s.toClear[:len(s.toClear)-1]
				}
				return false
			}
			s.seen[v] = 1
			s.toClear = append(s.toClear, q)
			s.analyzeStack = append(s.analyzeStack, q)
		}
	}
	return true
}

// analyzeFinal computes the subset of assumptions that imply the failure of
// assumption p (whose complement is currently implied). The result is stored
// in s.core, expressed as the failing assumption literals themselves.
func (s *Solver) analyzeFinal(p Lit) {
	s.core = s.core[:0]
	s.core = append(s.core, p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == crUndef {
			// A decision above level 0 during the assumption phase is an
			// assumption literal; it participates in the core as-is.
			s.core = append(s.core, s.trail[i])
		} else {
			lits := s.reasonLits(s.trail[i], s.reason[v])
			for _, qw := range lits[1:] {
				q := Lit(qw)
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

func (s *Solver) pickBranchLit() Lit {
	for !s.order.empty() {
		v := s.order.removeMin()
		if s.valueLit(PosLit(v)) == lUndef {
			return MkLit(v, s.polarity[v])
		}
	}
	return LitUndef
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(y float64, i int) float64 {
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) >> 1
		seq--
		i = i % size
	}
	return math.Pow(y, float64(seq))
}

// reduceDB halves the learnt database, deleting the clauses least likely to
// be useful again: sorted by LBD (high glue first) with activity as the
// tiebreak, sparing binary clauses, glue clauses (LBD <= glueLBD) and
// clauses locked as reasons.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		ci, cj := s.learnts[i], s.learnts[j]
		if li, lj := s.clauseLBD(ci), s.clauseLBD(cj); li != lj {
			return li > lj
		}
		return s.clauseAct(ci) < s.clauseAct(cj)
	})
	j := 0
	for i, cr := range s.learnts {
		if i < len(s.learnts)/2 && s.clauseSize(cr) > 2 && !s.locked(cr) &&
			s.clauseLBD(cr) > glueLBD {
			s.detachClause(cr)
			s.markDeleted(cr)
		} else {
			s.learnts[j] = cr
			j++
		}
	}
	s.learnts = s.learnts[:j]
}

func (s *Solver) locked(cr clauseRef) bool {
	l0 := Lit(s.clauseLits(cr)[0])
	return s.valueLit(l0) == lTrue && s.reason[l0.Var()] == cr
}

// ShareStop makes the solver poll flag, so whoever owns flag cancels
// every solver sharing it with one store: an in-flight Solve returns
// Unknown within one decision/conflict iteration, and a flag set before
// Solve stops it before it searches. The store may come from any
// goroutine; call ShareStop itself before Solve, from the goroutine that
// owns the solver.
func (s *Solver) ShareStop(flag *atomic.Bool) { s.stop = flag }

// stopped reports whether the solver's stop flag is set.
func (s *Solver) stopped() bool { return s.stop != nil && s.stop.Load() }

// search runs CDCL until a model is found, the formula is refuted, the
// restart budget (nofConflicts) is exhausted, the global conflict budget
// runs out, or its stop flag is set.
func (s *Solver) search(nofConflicts int64) Status {
	conflictC := int64(0)
	for {
		if s.stopped() {
			return Unknown
		}
		confl := s.propagate()
		if confl != crUndef {
			s.Stats.Conflicts++
			conflictC++
			if s.decisionLevel() == 0 {
				s.ok = false
				s.core = s.core[:0]
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			lbd := s.computeLBD(learnt)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crUndef)
			} else {
				cr := s.allocClause(learnt, true, lbd)
				s.attachClause(cr)
				s.claBumpActivity(cr)
				s.uncheckedEnqueue(learnt[0], cr)
			}
			s.varInc /= varDecay
			s.claInc /= claDecay

			s.learntAdjustCt--
			if s.learntAdjustCt <= 0 {
				// Each adjustment period is adjustInc times longer than the
				// last (MiniSat's learntsize_adjust schedule). The interval
				// must grow geometrically: a constant period would raise
				// maxLearnts faster than one-learnt-per-conflict can fill
				// the DB, and reduceDB would never trigger.
				s.learntAdjustIvl *= adjustInc
				s.learntAdjustCt = int64(s.learntAdjustIvl)
				s.maxLearnts *= learntIncFactor
			}
			continue
		}

		// No conflict.
		if nofConflicts >= 0 && conflictC >= nofConflicts {
			s.cancelUntil(int32(len(s.assumptions)))
			return Unknown
		}
		if s.MaxConflicts >= 0 && s.Stats.Conflicts >= s.MaxConflicts {
			return Unknown
		}
		if float64(len(s.learnts)) >= s.maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
		}

		// Assumption handling: decide pending assumptions first.
		next := LitUndef
		for int(s.decisionLevel()) < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.valueLit(p) {
			case lTrue:
				s.newDecisionLevel() // already satisfied; dummy level
			case lFalse:
				s.analyzeFinal(p)
				return Unsat
			default:
				next = p
			}
			if next != LitUndef {
				break
			}
		}
		if next == LitUndef {
			if len(s.trail) == s.NumVars() {
				// Every variable is assigned and propagation is at fixpoint:
				// the assignment is a model. Returning here (instead of
				// letting pickBranchLit discover it) keeps the order heap
				// intact — on propagation-dominated workloads the heap would
				// otherwise be drained of every assigned variable and rebuilt
				// one insert at a time by the final cancelUntil.
				return Sat
			}
			next = s.pickBranchLit()
			if next == LitUndef {
				// All variables assigned: model found.
				return Sat
			}
			s.Stats.Decisions++
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, crUndef)
	}
}

// Solve determines satisfiability of the clause database under the given
// assumption literals. On Sat, Model/ModelValue are valid; on Unsat, Core
// returns the failing subset of assumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.Stats.Solves++
	s.model = s.model[:0]
	s.core = s.core[:0]
	if !s.ok {
		return Unsat
	}
	// Chaos hook: a forced Unknown models "the solver gave up" without
	// burning search effort. One atomic load when the harness is disarmed.
	if faultinject.Enabled() && faultinject.Fire(faultinject.SolverUnknown) {
		return Unknown
	}
	for _, a := range assumptions {
		s.ensureVar(a.Var())
	}
	s.settle()
	s.assumptions = append(s.assumptions[:0], assumptions...)
	s.maxLearnts = float64(s.numProblemClauses()) * learntFactor
	if s.maxLearnts < 1000 {
		s.maxLearnts = 1000
	}
	s.learntAdjustIvl = adjustStart
	s.learntAdjustCt = adjustStart

	status := Unknown
	for restart := 0; status == Unknown; restart++ {
		budget := int64(luby(2.0, restart) * restartFirst)
		status = s.search(budget)
		s.Stats.Restarts++
		if status == Unknown && s.stopped() {
			// A cancelled query stays Unknown: do not restart. A Sat/Unsat
			// verdict that raced the stop is still valid and kept.
			break
		}
		if s.MaxConflicts >= 0 && s.Stats.Conflicts >= s.MaxConflicts && status == Unknown {
			break
		}
		if status == Unknown && s.Stats.Conflicts-s.lastCollect >= collectInterval {
			// Restart boundary: periodically reclaim the slab words of the
			// learnts reduceDB deleted. Compaction needs the solver at
			// level 0; assumptions are re-decided by the next search call.
			s.lastCollect = s.Stats.Conflicts
			s.cancelUntil(0)
			s.maybeCollect()
		}
	}
	if status == Sat {
		s.model = append(s.model, s.vals...)
	}
	s.cancelUntil(0)
	s.assumptions = s.assumptions[:0]
	return status
}

func (s *Solver) numProblemClauses() int {
	return s.liveProblem
}

// ModelValue returns the value of l in the most recent satisfying model.
// It panics if the last Solve did not return Sat.
func (s *Solver) ModelValue(l Lit) bool {
	if len(s.model) == 0 {
		panic("sat: ModelValue without a model")
	}
	return s.model[l] == lTrue // unassigned defaults to false
}

// Core returns the subset of the assumption literals under which the last
// Solve call was Unsat. The returned literals are assumption literals
// (not negated). An empty core means the clause database is Unsat on its
// own. The slice is owned by the solver; callers must copy to retain it.
func (s *Solver) Core() []Lit {
	return s.core
}

// NumClauses returns the number of live problem clauses plus learnt clauses.
func (s *Solver) NumClauses() int {
	return s.liveProblem + len(s.learnts)
}

func (s *Solver) String() string {
	return fmt.Sprintf("sat.Solver{vars: %d, clauses: %d, conflicts: %d}",
		s.NumVars(), s.NumClauses(), s.Stats.Conflicts)
}
