package sat

import (
	"fmt"
	"math"
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
	// Released counts selectors retracted via Release; Simplifies counts
	// level-0 garbage-collection passes over the clause database.
	Released   int64
	Simplifies int64
	// Imported counts clauses drained in from sibling solvers through
	// ImportClause.
	Imported int64
	// Compactions counts arena garbage collections (see arena.go); Subsumed
	// and Strengthened count clauses removed / shrunk by the inprocessing
	// pass (backward subsumption and self-subsuming resolution; see
	// inprocess.go). Inprocessings counts the passes themselves.
	Compactions   int64
	Subsumed      int64
	Strengthened  int64
	Inprocessings int64
	// SharedOut counts learnt clauses handed to the mid-run export hook
	// (lock-free clause exchange; see SetExchangeHooks).
	SharedOut int64
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
	assigns  []lbool     // indexed by Var
	polarity []bool      // saved phase per Var; true = assign false next time
	decision []bool      // per Var: eligible as a decision variable
	local    []bool      // per Var: scoped to this solver (selectors); see MarkLocal
	level    []int32
	reason   []clauseRef
	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	claInc   float64
	order    *varHeap

	seen         []byte
	litSeen      []byte // indexed by Lit; inprocessing subset checks
	stampLevel   []int64
	stampCtr     int64
	analyzeStack []Lit
	learntBuf    []Lit // reusable conflict-clause buffer (see analyze)
	toClear      []Lit

	ok          bool // false once the clause DB is UNSAT at level 0
	model       []lbool
	core        []Lit
	assumptions []Lit

	maxLearnts      float64
	learntAdjustCt  int64
	learntAdjustIvl float64 // current adjustment interval, grows by adjustInc

	// lastInprocess remembers Stats.Conflicts at the previous inprocessing
	// pass; scratchRefs is Simplify's reusable satisfied-clause buffer.
	lastInprocess int64
	scratchRefs   []clauseRef

	// exportHook/drainHook are the mid-run clause-exchange callbacks
	// (SetExchangeHooks): exportHook fires inside the search loop for each
	// freshly learnt low-LBD base clause, drainHook fires at restart
	// boundaries with the solver backtracked to level 0 so foreign clauses
	// can be imported via AddClause.
	exportHook func(lits []Lit, lbd int)
	drainHook  func()

	// MaxConflicts bounds the search effort per Solve call; <0 means
	// unlimited. When the budget is exhausted Solve returns Unknown.
	// Note the comparison is against the cumulative Stats.Conflicts
	// counter: long-lived (pooled) solvers should use SetConflictBudget,
	// which expresses a budget relative to the work already done.
	MaxConflicts int64

	// interrupted is the cooperative cancellation flag: Interrupt (callable
	// from any goroutine — the only concurrency-safe entry point on a
	// Solver) sets it, and the CDCL search loop polls it once per
	// decision/conflict iteration, abandoning the Solve call with Unknown.
	// The flag is sticky across Solve calls until ClearInterrupt, so a
	// cancellation that lands between two queries still stops the next one.
	interrupted atomic.Bool

	// releasedSinceGC counts Release calls since the last Simplify; when
	// it crosses releaseGCThreshold the dead clauses are collected.
	releasedSinceGC int

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
	s.order = newVarHeap(&s.activity)
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
	// shareMaxLBD/shareMaxLen bound what the mid-run export hook is offered:
	// only short, low-glue clauses are worth a sibling's import cost.
	shareMaxLBD = 4
	shareMaxLen = 12
)

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.Stats.VarsAdded++
	s.assigns = append(s.assigns, lUndef)
	s.polarity = append(s.polarity, true)
	s.decision = append(s.decision, true)
	s.local = append(s.local, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crUndef)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.litSeen = append(s.litSeen, 0, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v)
	return v
}

// ensureVar allocates variables up to and including v.
func (s *Solver) ensureVar(v Var) {
	for Var(len(s.assigns)) <= v {
		s.NewVar()
	}
}

func (s *Solver) valueVar(v Var) lbool { return s.assigns[v] }

func (s *Solver) valueLit(l Lit) lbool { return s.assigns[l>>1].xorSignBit(lbool(l & 1)) }

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
	ls := make([]Lit, len(lits))
	copy(ls, lits)
	for _, l := range ls {
		if l < 0 {
			panic("sat: undefined literal in clause")
		}
		s.ensureVar(l.Var())
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
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
		s.uncheckedEnqueue(out[0], crUndef)
		s.ok = s.propagate() == crUndef
		return s.ok
	}
	cr := s.allocClause(out, false, 0)
	s.attachClause(cr)
	return true
}

// allocClause appends a clause to the arena. For learnt clauses lbd is the
// literal block distance computed at learn time; problem clauses pass 0.
func (s *Solver) allocClause(lits []Lit, learnt bool, lbd int) clauseRef {
	cr := clauseRef(len(s.arena))
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
	s.assigns[v] = boolToLbool(!l.Neg())
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
		s.assigns[v] = lUndef
		s.polarity[v] = l.Neg()
		s.reason[v] = crUndef
		if !s.order.inHeap(v) && s.decision[v] {
			s.order.insert(v)
		}
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
		s.varInc *= 1e-100
	}
	s.order.decreased(v)
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
// boundaries — so it drives both learnt-DB reduction and mid-run export.
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
		if s.assigns[v] == lUndef && s.decision[v] {
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

// Interrupt asks the solver to abandon the current (or next) Solve call at
// the next interrupt check: the search loop polls the flag once per
// decision/conflict iteration, so an in-flight query returns Unknown within
// one such interval. Interrupt is safe to call from any goroutine — it is
// the one concurrency-safe entry point on a Solver — which is what lets a
// cancelled Learn stop workers' queries without owning their solvers.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// ClearInterrupt re-arms an interrupted solver for further queries.
func (s *Solver) ClearInterrupt() { s.interrupted.Store(false) }

// Interrupted reports whether Interrupt has been called since the last
// ClearInterrupt.
func (s *Solver) Interrupted() bool { return s.interrupted.Load() }

// SetExchangeHooks installs the mid-run clause-exchange callbacks (both may
// be nil to detach). export fires inside the search loop for every freshly
// learnt base clause with LBD <= shareMaxLBD and at most shareMaxLen
// literals; the slice is borrowed — the hook must copy or translate it
// before returning. drain fires at restart boundaries with the solver
// backtracked to decision level 0, so the hook may add foreign clauses via
// AddClause/ImportClause; a long drain should poll Interrupted and bail.
// Hooks run on the Solve caller's goroutine.
func (s *Solver) SetExchangeHooks(export func(lits []Lit, lbd int), drain func()) {
	s.exportHook = export
	s.drainHook = drain
}

// SetConflictBudget bounds the *next* search effort to n more conflicts,
// independent of how many conflicts this solver has already spent: it
// rebases MaxConflicts on the cumulative Stats.Conflicts counter. n < 0
// removes the bound. This is the per-query budget primitive behind the
// learner's Unknown-escalation ladder; pooled solvers must use it instead
// of assigning MaxConflicts directly.
func (s *Solver) SetConflictBudget(n int64) {
	if n < 0 {
		s.MaxConflicts = -1
		return
	}
	s.MaxConflicts = s.Stats.Conflicts + n
}

// maybeExport offers a freshly learnt clause to the mid-run exchange hook
// when it is worth a sibling's time — short and low-LBD — and portable: a
// learnt clause mentioning no local (selector) variable is implied by the
// base system alone. Guarded clauses (¬s ∨ C) can never contribute to a
// derivation without leaving a ¬s literal behind (no clause contains a
// positive selector), and level-0 release units (¬s) only deactivate
// guarded clauses, so such a clause is sound to add to any solver over the
// same base system.
func (s *Solver) maybeExport(lits []Lit, lbd int) {
	if s.exportHook == nil || lbd > shareMaxLBD || len(lits) > shareMaxLen {
		return
	}
	for _, l := range lits {
		if s.local[l.Var()] {
			return
		}
	}
	s.Stats.SharedOut++
	s.exportHook(lits, lbd)
}

// search runs CDCL until a model is found, the formula is refuted, the
// restart budget (nofConflicts) is exhausted, the global conflict budget
// runs out, or the solver is interrupted.
func (s *Solver) search(nofConflicts int64) Status {
	conflictC := int64(0)
	for {
		if s.interrupted.Load() {
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
			s.maybeExport(learnt, lbd)
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
			if len(s.trail) == len(s.assigns) {
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
				// All decision variables assigned: model found.
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
	s.model = nil
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
		if status == Unknown && s.interrupted.Load() {
			// A cancelled query stays Unknown: do not restart. A Sat/Unsat
			// verdict that raced the interrupt is still valid and kept.
			break
		}
		if s.MaxConflicts >= 0 && s.Stats.Conflicts >= s.MaxConflicts && status == Unknown {
			break
		}
		if status == Unknown {
			// Restart boundary: drain sibling rings (mid-run clause
			// exchange) and, periodically, run the inprocessing pass. Both
			// need the solver at level 0; assumptions are re-decided by the
			// next search call.
			if s.drainHook != nil {
				s.cancelUntil(0)
				s.drainHook()
			}
			if s.Stats.Conflicts-s.lastInprocess >= inprocessInterval {
				s.cancelUntil(0)
				s.inprocess()
			}
			if !s.ok {
				// A level-0 contradiction from imported or strengthened
				// clauses refutes the database independent of assumptions.
				s.core = s.core[:0]
				status = Unsat
			}
		}
	}
	if status == Sat {
		s.model = make([]lbool, len(s.assigns))
		copy(s.model, s.assigns)
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
	if s.model == nil {
		panic("sat: ModelValue without a model")
	}
	v := s.model[l.Var()].xorSign(l.Neg())
	return v == lTrue // unassigned defaults to false
}

// Core returns the subset of the assumption literals under which the last
// Solve call was Unsat. The returned literals are assumption literals
// (not negated). An empty core means the clause database is Unsat on its
// own. The slice is owned by the solver; callers must copy to retain it.
func (s *Solver) Core() []Lit {
	return s.core
}

// SetDecisionVar includes or excludes v from branching decisions.
// Non-decision variables can still be assigned by propagation.
func (s *Solver) SetDecisionVar(v Var, b bool) {
	s.ensureVar(v)
	s.decision[v] = b
	if b && !s.order.inHeap(v) {
		s.order.insert(v)
	}
}

// Okay reports whether the clause database is still possibly satisfiable
// (false once an unconditional contradiction was derived).
func (s *Solver) Okay() bool { return s.ok }

// NumClauses returns the number of live problem clauses plus learnt clauses.
func (s *Solver) NumClauses() int {
	return s.liveProblem + len(s.learnts)
}

func (s *Solver) String() string {
	return fmt.Sprintf("sat.Solver{vars: %d, clauses: %d, conflicts: %d}",
		s.NumVars(), s.NumClauses(), s.Stats.Conflicts)
}
