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
// An Encoder serves one query: it is built with a fresh solver, fed the
// query's facts (AssertLit) and its selector-guarded candidates
// (AssertLitWhen), solved, and dropped. Within that query each circuit node
// is Tseitin-encoded at most once, so cones shared by several predicates
// cost nothing extra.
type Encoder struct {
	S *sat.Solver
	c *Circuit

	lits       []*litPage // per page of nodes; nil until a node on it is encoded
	constFalse sat.Lit
	stats      EncoderStats
}

// EncoderStats counts the encoding work an Encoder has performed; the
// learner charges them to its encode-work counters when a query returns.
type EncoderStats struct {
	Gates   int64 // auxiliary (Tseitin gate) variables introduced
	Clauses int64 // clauses added through the encoder
}

const litUnset sat.Lit = -2

// litPageBits sizes the pages of the node-to-literal table. A query
// encodes a cone, not the circuit, and a cone's nodes cluster in node
// order: a MediumOoO query encodes ~1.1 k of the product's 30 k nodes on
// ~16 pages of 256. So an encoder allocates one pointer per page and the
// pages its cone touches, not a slot for every node of the circuit.
const litPageBits = 8

type litPage [1 << litPageBits]sat.Lit

// NewEncoder creates an encoder targeting the given solver. Multiple
// encoders must not share a solver.
func NewEncoder(c *Circuit, s *sat.Solver) *Encoder {
	e := &Encoder{S: s, c: c, lits: make([]*litPage, (len(c.nodes)+1<<litPageBits-1)>>litPageBits)}
	e.constFalse = sat.PosLit(s.NewVar())
	e.addClause(e.constFalse.Not())
	e.setLit(0, e.constFalse)
	return e
}

// lit returns the literal of node n, or litUnset before n is encoded.
func (e *Encoder) lit(n int32) sat.Lit {
	if p := e.lits[n>>litPageBits]; p != nil {
		return p[n&(1<<litPageBits-1)]
	}
	return litUnset
}

func (e *Encoder) setLit(n int32, l sat.Lit) {
	p := e.lits[n>>litPageBits]
	if p == nil {
		p = new(litPage)
		for i := range p {
			p[i] = litUnset
		}
		e.lits[n>>litPageBits] = p
	}
	p[n&(1<<litPageBits-1)] = l
}

// Stats returns the cumulative encode-work counters.
func (e *Encoder) Stats() EncoderStats { return e.stats }

// newGate allocates a fresh auxiliary (gate) variable.
func (e *Encoder) newGate() sat.Lit {
	e.stats.Gates++
	return sat.PosLit(e.S.NewVar())
}

// addClause adds a clause through the encoder, counting the encode work.
func (e *Encoder) addClause(ls ...sat.Lit) {
	e.stats.Clauses++
	e.S.AddClause(ls...)
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
	if l := e.lit(id); l != litUnset {
		return l
	}
	// Iterative DFS to avoid deep recursion on big cones.
	stack := []int32{id}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		if e.lit(n) != litUnset {
			stack = stack[:len(stack)-1]
			continue
		}
		nd := e.c.nodes[n]
		switch nd.kind {
		case kInput, kLatch:
			e.setLit(n, sat.PosLit(e.S.NewVar()))
			stack = stack[:len(stack)-1]
		case kAnd:
			la, lb := e.lit(nd.a.Node()), e.lit(nd.b.Node())
			if la == litUnset || lb == litUnset {
				if la == litUnset {
					stack = append(stack, nd.a.Node())
				}
				if lb == litUnset {
					stack = append(stack, nd.b.Node())
				}
				continue
			}
			g := e.newGate()
			a := la.XorSign(nd.a.Inverted())
			b := lb.XorSign(nd.b.Inverted())
			// g ↔ a ∧ b
			e.addClause(g.Not(), a)
			e.addClause(g.Not(), b)
			e.addClause(a.Not(), b.Not(), g)
			e.setLit(n, g)
			stack = stack[:len(stack)-1]
		default: // kConst handled in NewEncoder
			stack = stack[:len(stack)-1]
		}
	}
	return e.lit(id)
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

// AssertLit adds a unit clause fixing l true for the solver's lifetime.
func (e *Encoder) AssertLit(l sat.Lit) { e.addClause(l) }

// AssertLitWhen adds the selector-guarded clause sel → l: the assertion is
// active only in Solve calls that assume sel, so an UNSAT core over the
// assumed selectors names the assertions it used.
func (e *Encoder) AssertLitWhen(sel, l sat.Lit) { e.addClause(sel.Not(), l) }

// NewSelector allocates a fresh activation literal for guarded assertions.
func (e *Encoder) NewSelector() sat.Lit { return e.S.NewSelector() }
