// Package sat implements a CDCL (conflict-driven clause learning) SAT solver
// with assumption-based incremental solving and UNSAT-core extraction.
//
// The solver is the decision-procedure substrate of this repository: the
// paper performs its abduction queries with cvc5 over bit-level hardware;
// here circuits are bit-blasted (package circuit) and every inductivity or
// abduction query becomes a SAT call. Final-conflict cores over assumption
// literals play the role of cvc5's unsat cores.
//
// The design follows MiniSat: two-watched-literal propagation, first-UIP
// clause learning with recursive minimization, VSIDS variable activity,
// phase saving, Luby restarts and activity-based learnt-clause deletion.
package sat

import "fmt"

// Var is a propositional variable. Variables are dense, 0-based integers
// allocated with Solver.NewVar.
type Var int32

// Lit is a literal: a variable together with a sign. The encoding is
// 2*v for the positive literal and 2*v+1 for the negated literal.
type Lit int32

// LitUndef is the sentinel "no literal" value.
const LitUndef Lit = -1

// MkLit builds a literal from a variable. neg selects the negated literal.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether l is a negated literal.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// XorSign flips the sign of l when b is true.
func (l Lit) XorSign(b bool) Lit {
	if b {
		return l ^ 1
	}
	return l
}

// String renders the literal in DIMACS style (1-based, '-' for negation).
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Neg() {
		return fmt.Sprintf("-%d", int(l.Var())+1)
	}
	return fmt.Sprintf("%d", int(l.Var())+1)
}

// lbool is a three-valued boolean: true, false or undefined.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// Status is the result of a Solve call.
type Status int8

const (
	// Unknown means the solver gave up (budget exhausted or interrupted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found; see Solver.Model.
	Sat
	// Unsat means the formula is unsatisfiable under the given assumptions;
	// see Solver.Core.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}
