package circuit

import (
	"fmt"

	"hhoudini/internal/sat"
)

// Encoder lazily Tseitin-encodes the combinational cone of requested
// signals into a SAT solver. Only the logic actually reachable from the
// requested signals is encoded — this locality is what makes the paper's
// incremental relative-induction queries cheap compared to a monolithic
// encoding of the whole design.
//
// The encoding covers a single transition: current-state register bits and
// input bits become free variables, and the next-state value of a register
// bit is the encoding of its next-state function over those variables.
//
// An Encoder is built for reuse across queries on the same solver: the
// node→literal memoization is persistent, so a cone (or a predicate
// encoding cached via Memo) is Tseitin-encoded at most once per Encoder
// lifetime. Query-specific facts should be scoped with assumption
// literals — either directly, or through selector-guarded clauses added
// with AssertLitWhen — rather than asserted destructively with AssertLit.
type Encoder struct {
	S *sat.Solver
	c *Circuit

	lits       []sat.Lit // per node; litUnset until encoded
	constFalse sat.Lit
	memo       map[string]sat.Lit
	stats      EncoderStats

	// Canonical variable naming for clause exchange between the solvers of
	// one Learn's workers. A name denotes the same boolean function of the
	// circuit state in every encoder over the same circuit: node variables are named
	// by node id ("n:<id>"), and auxiliary gates built inside a named scope
	// (a Memo build or InScope region, which runs at most once per encoder
	// and is a deterministic function of its key) are named positionally
	// ("g:<scope>\x00<seq>"). Selector variables and gates built outside
	// any scope stay unnamed and are never exchanged.
	varNames  []string           // var index → canonical name ("" = unnamed)
	nameToVar map[string]sat.Var // canonical name → var
	scope     string
	scopeSeq  int
}

// NamedLit is a literal expressed over canonical variable names instead of
// solver variable indices — the portable form used to move learnt clauses
// between solvers that encode the same system.
type NamedLit struct {
	Name string
	Neg  bool
}

// EncoderStats counts the encoding work an Encoder has performed. The
// incremental abduction backend reads per-query deltas off these counters
// to demonstrate the encode-work drop from solver pooling.
type EncoderStats struct {
	Gates    int64 // auxiliary (Tseitin gate) variables introduced
	Clauses  int64 // clauses added through the encoder
	MemoHits int64 // Memo calls served from cache without re-encoding
	// Imported counts clauses drained in from sibling workers via
	// ImportNamedClause. They are deliberately not charged to Clauses:
	// imported clauses are reused work, not fresh encode work.
	Imported int64
}

const litUnset sat.Lit = -2

// NewEncoder creates an encoder targeting the given solver. Multiple
// encoders must not share a solver.
func NewEncoder(c *Circuit, s *sat.Solver) *Encoder {
	e := &Encoder{S: s, c: c, lits: make([]sat.Lit, len(c.nodes)),
		memo: make(map[string]sat.Lit), nameToVar: make(map[string]sat.Var)}
	for i := range e.lits {
		e.lits[i] = litUnset
	}
	e.constFalse = sat.PosLit(s.NewVar())
	e.setName(e.constFalse.Var(), "n:0")
	e.addClause(e.constFalse.Not())
	e.lits[0] = e.constFalse
	return e
}

// setName records the canonical name of a variable in both directions.
// Empty names are ignored: the variable stays local to this encoder.
func (e *Encoder) setName(v sat.Var, name string) {
	if name == "" {
		return
	}
	for int(v) >= len(e.varNames) {
		e.varNames = append(e.varNames, "")
	}
	e.varNames[v] = name
	e.nameToVar[name] = v
}

// VarName returns the canonical name of a variable, or "" if it is local
// to this encoder (selectors, unscoped helper gates).
func (e *Encoder) VarName(v sat.Var) string {
	if int(v) < len(e.varNames) {
		return e.varNames[v]
	}
	return ""
}

// InScope runs fn with gate naming scoped under key. The build must run at
// most once per encoder per key and be a deterministic function of the key
// and the circuit, so that the k-th gate created under the scope denotes
// the same boolean function in every encoder of the same system. Memo
// applies the same scoping automatically; InScope exists for non-memoized
// deterministic regions such as the environment assumption.
func (e *Encoder) InScope(key string, fn func() error) error {
	prevScope, prevSeq := e.scope, e.scopeSeq
	e.scope, e.scopeSeq = key, 0
	err := fn()
	e.scope, e.scopeSeq = prevScope, prevSeq
	return err
}

// Stats returns the cumulative encode-work counters.
func (e *Encoder) Stats() EncoderStats { return e.stats }

// newGate allocates a fresh auxiliary (gate) variable. Inside a named
// scope the gate is canonically named by its position in the scope's
// deterministic build; outside any scope it stays local to this encoder.
func (e *Encoder) newGate() sat.Lit {
	e.stats.Gates++
	l := sat.PosLit(e.S.NewVar())
	if e.scope != "" {
		e.setName(l.Var(), "g:"+e.scope+"\x00"+itoa(e.scopeSeq))
		e.scopeSeq++
	}
	return l
}

// newNodeVar allocates the variable of a circuit node, named by global node
// id ("n:<id>") — stable across encoders of the same circuit regardless of
// the order cones are encoded in.
func (e *Encoder) newNodeVar(id int32, gate bool) sat.Lit {
	if gate {
		e.stats.Gates++
	}
	l := sat.PosLit(e.S.NewVar())
	e.setName(l.Var(), "n:"+itoa(int(id)))
	return l
}

// itoa is strconv.Itoa without the import weight on the hot path.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	neg := i < 0
	if neg {
		i = -i
	}
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		b[pos] = '-'
	}
	return string(b[pos:])
}

// addClause adds a clause through the encoder, counting the encode work.
func (e *Encoder) addClause(ls ...sat.Lit) {
	e.stats.Clauses++
	e.S.AddClause(ls...)
}

// Memo returns the literal cached under key, building and caching it on
// first use. It is the reuse hook for predicate encodings: encodings are
// deterministic functions of the (persistent) encoder state, so a cached
// literal stays equivalent for the lifetime of the encoder.
func (e *Encoder) Memo(key string, build func() (sat.Lit, error)) (sat.Lit, error) {
	if l, ok := e.memo[key]; ok {
		e.stats.MemoHits++
		return l, nil
	}
	var l sat.Lit
	err := e.InScope(key, func() error {
		var err error
		l, err = build()
		return err
	})
	if err != nil {
		return 0, err
	}
	e.memo[key] = l
	return l, nil
}

// NameClause translates one clause of solver literals into canonical named
// form, or returns nil when any variable is unnamed (selector or unscoped
// gate) — such a clause is local to this encoder and not portable. The
// input is borrowed: the result shares nothing with it, so it is safe to
// call from the solver's mid-run export hook, whose argument is only valid
// for the duration of the call.
func (e *Encoder) NameClause(lits []sat.Lit) []NamedLit {
	named := make([]NamedLit, len(lits))
	for i, l := range lits {
		name := e.VarName(l.Var())
		if name == "" {
			return nil
		}
		named[i] = NamedLit{Name: name, Neg: l.Neg()}
	}
	return named
}

// ImportNamedClause replays one canonical clause into this encoder's
// solver, translating names back to local literals. It reports false —
// without touching the solver — when any name is not (yet) allocated here;
// the caller may retry after more encodings appear.
func (e *Encoder) ImportNamedClause(cl []NamedLit) bool {
	lits := make([]sat.Lit, len(cl))
	for i, nl := range cl {
		v, ok := e.nameToVar[nl.Name]
		if !ok {
			return false
		}
		l := sat.PosLit(v)
		if nl.Neg {
			l = l.Not()
		}
		lits[i] = l
	}
	e.stats.Imported++
	e.S.ImportClause(lits...)
	return true
}

// FalseLit returns a literal constrained to false.
func (e *Encoder) FalseLit() sat.Lit { return e.constFalse }

// TrueLit returns a literal constrained to true.
func (e *Encoder) TrueLit() sat.Lit { return e.constFalse.Not() }

// SignalLit returns the solver literal representing a circuit signal,
// encoding its cone on first use.
func (e *Encoder) SignalLit(sig Signal) sat.Lit {
	return e.nodeLit(sig.Node()).XorSign(sig.Inverted())
}

func (e *Encoder) nodeLit(id int32) sat.Lit {
	if l := e.lits[id]; l != litUnset {
		return l
	}
	// Iterative DFS to avoid deep recursion on big cones.
	stack := []int32{id}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		if e.lits[n] != litUnset {
			stack = stack[:len(stack)-1]
			continue
		}
		nd := e.c.nodes[n]
		switch nd.kind {
		case kInput, kLatch:
			e.lits[n] = e.newNodeVar(n, false)
			stack = stack[:len(stack)-1]
		case kAnd:
			la, lb := e.lits[nd.a.Node()], e.lits[nd.b.Node()]
			if la == litUnset || lb == litUnset {
				if la == litUnset {
					stack = append(stack, nd.a.Node())
				}
				if lb == litUnset {
					stack = append(stack, nd.b.Node())
				}
				continue
			}
			g := e.newNodeVar(n, true)
			a := la.XorSign(nd.a.Inverted())
			b := lb.XorSign(nd.b.Inverted())
			// g ↔ a ∧ b
			e.addClause(g.Not(), a)
			e.addClause(g.Not(), b)
			e.addClause(a.Not(), b.Not(), g)
			e.lits[n] = g
			stack = stack[:len(stack)-1]
		default: // kConst handled in NewEncoder
			stack = stack[:len(stack)-1]
		}
	}
	return e.lits[id]
}

// WordLits encodes each bit of a word.
func (e *Encoder) WordLits(w Word) []sat.Lit {
	out := make([]sat.Lit, len(w))
	for i, s := range w {
		out[i] = e.SignalLit(s)
	}
	return out
}

// RegLits returns the current-state literals of a register.
func (e *Encoder) RegLits(name string) ([]sat.Lit, error) {
	r, ok := e.c.Reg(name)
	if !ok {
		return nil, fmt.Errorf("circuit: unknown register %q", name)
	}
	return e.WordLits(r.Bits), nil
}

// RegNextLits returns the next-state literals of a register (the encoding
// of its next-state function over current-state and input variables).
func (e *Encoder) RegNextLits(name string) ([]sat.Lit, error) {
	r, ok := e.c.Reg(name)
	if !ok {
		return nil, fmt.Errorf("circuit: unknown register %q", name)
	}
	return e.WordLits(r.Next), nil
}

// WireLits returns the literals of a named wire (encoding its cone).
func (e *Encoder) WireLits(name string) ([]sat.Lit, error) {
	w, ok := e.c.Wire(name)
	if !ok {
		return nil, fmt.Errorf("circuit: unknown wire %q", name)
	}
	return e.WordLits(w), nil
}

// InputLits returns the literals of an input port.
func (e *Encoder) InputLits(name string) ([]sat.Lit, error) {
	p, ok := e.c.Input(name)
	if !ok {
		return nil, fmt.Errorf("circuit: unknown input %q", name)
	}
	return e.WordLits(p.Bits), nil
}

// --- Gate helpers over already-encoded literals ----------------------------

// AndLits returns a literal equivalent to the conjunction of ls.
func (e *Encoder) AndLits(ls ...sat.Lit) sat.Lit {
	switch len(ls) {
	case 0:
		return e.TrueLit()
	case 1:
		return ls[0]
	}
	g := e.newGate()
	long := make([]sat.Lit, 0, len(ls)+1)
	for _, l := range ls {
		e.addClause(g.Not(), l)
		long = append(long, l.Not())
	}
	long = append(long, g)
	e.addClause(long...)
	return g
}

// OrLits returns a literal equivalent to the disjunction of ls.
func (e *Encoder) OrLits(ls ...sat.Lit) sat.Lit {
	switch len(ls) {
	case 0:
		return e.FalseLit()
	case 1:
		return ls[0]
	}
	neg := make([]sat.Lit, len(ls))
	for i, l := range ls {
		neg[i] = l.Not()
	}
	return e.AndLits(neg...).Not()
}

// XnorLit returns a literal equivalent to a ↔ b.
func (e *Encoder) XnorLit(a, b sat.Lit) sat.Lit {
	g := e.newGate()
	e.addClause(g.Not(), a.Not(), b)
	e.addClause(g.Not(), a, b.Not())
	e.addClause(g, a, b)
	e.addClause(g, a.Not(), b.Not())
	return g
}

// EqLits returns a literal asserting bitwise equality of two literal words.
func (e *Encoder) EqLits(a, b []sat.Lit) sat.Lit {
	if len(a) != len(b) {
		panic("circuit: EqLits width mismatch")
	}
	bits := make([]sat.Lit, len(a))
	for i := range a {
		bits[i] = e.XnorLit(a[i], b[i])
	}
	return e.AndLits(bits...)
}

// EqConstLits returns a literal asserting that the literal word equals a
// constant value.
func (e *Encoder) EqConstLits(a []sat.Lit, val uint64) sat.Lit {
	bits := make([]sat.Lit, len(a))
	for i := range a {
		if i < 64 && val&(1<<uint(i)) != 0 {
			bits[i] = a[i]
		} else {
			bits[i] = a[i].Not()
		}
	}
	return e.AndLits(bits...)
}

// MatchLits returns a literal asserting (word & mask) == match.
func (e *Encoder) MatchLits(a []sat.Lit, mask, match uint64) sat.Lit {
	var bits []sat.Lit
	for i := range a {
		if i >= 64 || mask&(1<<uint(i)) == 0 {
			continue
		}
		if match&(1<<uint(i)) != 0 {
			bits = append(bits, a[i])
		} else {
			bits = append(bits, a[i].Not())
		}
	}
	return e.AndLits(bits...)
}

// AssertLit adds a unit clause fixing l true. The assertion is permanent;
// on a pooled (reused) encoder prefer assumptions or AssertLitWhen.
func (e *Encoder) AssertLit(l sat.Lit) { e.addClause(l) }

// AssertLitWhen adds the selector-guarded clause sel → l: the assertion is
// active only in Solve calls that assume sel, making it retractable — the
// guarded clause can later be permanently discharged by releasing sel
// (sat.Solver.Release).
func (e *Encoder) AssertLitWhen(sel, l sat.Lit) { e.addClause(sel.Not(), l) }

// NewSelector allocates a fresh activation literal for guarded assertions.
func (e *Encoder) NewSelector() sat.Lit { return e.S.NewSelector() }
