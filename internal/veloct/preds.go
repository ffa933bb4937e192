// Package veloct instantiates H-Houdini for the safe instruction set
// synthesis problem (SISP), as §4–§5 of the paper describe: it builds the
// product (miter) transition system of a processor design, defines the
// relational predicate language (Eq, EqConst, EqConstSet, InSafeSet and
// the expert InSafeUop flavor), generates and cleans positive examples by
// paired concrete simulation, mines predicates with Algorithm 2, and
// drives the learner to either an inductive invariant proving a proposed
// safe set or None.
package veloct

import (
	"fmt"
	"sort"
	"strings"

	"hhoudini/internal/circuit"
	"hhoudini/internal/isa"
	"hhoudini/internal/miter"
	"hhoudini/internal/sat"
)

// EqPred is the Eq(v) predicate: v holds the same value in the left and
// right executions (§5.1.1). Its variables are the two product-circuit
// copies of the base register.
type EqPred struct {
	Reg  string // base register name
	pair regPair
}

// ID implements hhoudini.Pred.
func (p EqPred) ID() string { return "Eq(" + p.Reg + ")" }

// Vars implements hhoudini.Pred.
func (p EqPred) Vars() []string { return []string{miter.Left(p.Reg), miter.Right(p.Reg)} }

func (p EqPred) String() string { return p.ID() }

// Encode implements hhoudini.Pred.
func (p EqPred) Encode(enc *circuit.Encoder, next bool) (sat.Lit, error) {
	l, r, err := pairLits(enc, p.Reg, next)
	if err != nil {
		return 0, err
	}
	return enc.EqLits(l, r), nil
}

// Eval implements hhoudini.Pred.
func (p EqPred) Eval(c *circuit.Circuit, s circuit.Snapshot) (bool, error) {
	lv, rv, err := pairVals(c, s, p.Reg, p.pair)
	if err != nil {
		return false, err
	}
	return lv == rv, nil
}

// EqConstPred is EqConst(v, val): v holds the constant val in both
// executions (implicitly an Eq, §5.1.1).
type EqConstPred struct {
	Reg  string
	Val  uint64
	pair regPair
}

// ID implements hhoudini.Pred.
func (p EqConstPred) ID() string { return fmt.Sprintf("EqConst(%s,%#x)", p.Reg, p.Val) }

// Vars implements hhoudini.Pred.
func (p EqConstPred) Vars() []string { return []string{miter.Left(p.Reg), miter.Right(p.Reg)} }

func (p EqConstPred) String() string { return p.ID() }

// Encode implements hhoudini.Pred.
func (p EqConstPred) Encode(enc *circuit.Encoder, next bool) (sat.Lit, error) {
	l, r, err := pairLits(enc, p.Reg, next)
	if err != nil {
		return 0, err
	}
	return enc.AndLits(enc.EqConstLits(l, p.Val), enc.EqConstLits(r, p.Val)), nil
}

// Eval implements hhoudini.Pred.
func (p EqConstPred) Eval(c *circuit.Circuit, s circuit.Snapshot) (bool, error) {
	lv, rv, err := pairVals(c, s, p.Reg, p.pair)
	if err != nil {
		return false, err
	}
	return lv == p.Val && rv == p.Val, nil
}

// EqConstSetPred is EqConstSet(v, [vals...]): v is equal across executions
// and takes one of the listed constants. The expert InSafeUop annotation
// of §6.2 is this predicate instantiated with the safe uop codes.
type EqConstSetPred struct {
	Label string // e.g. "InSafeUop"
	Reg   string
	Vals  []uint64 // sorted, deduped
	pair  regPair
}

// NewEqConstSet normalizes the value list.
func NewEqConstSet(label, reg string, vals []uint64) EqConstSetPred {
	vs := append([]uint64(nil), vals...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:0]
	var prev uint64
	for i, v := range vs {
		if i == 0 || v != prev {
			out = append(out, v)
		}
		prev = v
	}
	return EqConstSetPred{Label: label, Reg: reg, Vals: out}
}

// ID implements hhoudini.Pred.
func (p EqConstSetPred) ID() string {
	parts := make([]string, len(p.Vals))
	for i, v := range p.Vals {
		parts[i] = fmt.Sprintf("%#x", v)
	}
	return fmt.Sprintf("%s(%s,{%s})", p.Label, p.Reg, strings.Join(parts, ","))
}

// Vars implements hhoudini.Pred.
func (p EqConstSetPred) Vars() []string { return []string{miter.Left(p.Reg), miter.Right(p.Reg)} }

func (p EqConstSetPred) String() string { return p.ID() }

// Encode implements hhoudini.Pred.
func (p EqConstSetPred) Encode(enc *circuit.Encoder, next bool) (sat.Lit, error) {
	l, r, err := pairLits(enc, p.Reg, next)
	if err != nil {
		return 0, err
	}
	opts := make([]sat.Lit, len(p.Vals))
	for i, v := range p.Vals {
		opts[i] = enc.EqConstLits(l, v)
	}
	return enc.AndLits(enc.OrLits(opts...), enc.EqLits(l, r)), nil
}

// Eval implements hhoudini.Pred.
func (p EqConstSetPred) Eval(c *circuit.Circuit, s circuit.Snapshot) (bool, error) {
	lv, rv, err := pairVals(c, s, p.Reg, p.pair)
	if err != nil {
		return false, err
	}
	if lv != rv {
		return false, nil
	}
	for _, v := range p.Vals {
		if lv == v {
			return true, nil
		}
	}
	return false, nil
}

// InSafeSetPred constrains a register holding a raw instruction word to
// bit patterns consistent with the proposed safe set (§5.1.1); the
// patterns are generated from the ISA specification. Implicitly Eq-typed.
type InSafeSetPred struct {
	Reg  string
	Pats []isa.MaskMatch
	pair regPair
}

// ID implements hhoudini.Pred. The pattern list is fixed per analysis, so
// the register name identifies the predicate.
func (p InSafeSetPred) ID() string { return "InSafeSet(" + p.Reg + ")" }

// Vars implements hhoudini.Pred.
func (p InSafeSetPred) Vars() []string { return []string{miter.Left(p.Reg), miter.Right(p.Reg)} }

func (p InSafeSetPred) String() string { return p.ID() }

// Encode implements hhoudini.Pred.
func (p InSafeSetPred) Encode(enc *circuit.Encoder, next bool) (sat.Lit, error) {
	l, r, err := pairLits(enc, p.Reg, next)
	if err != nil {
		return 0, err
	}
	opts := make([]sat.Lit, len(p.Pats))
	for i, mm := range p.Pats {
		opts[i] = enc.MatchLits(l, uint64(mm.Mask), uint64(mm.Match))
	}
	return enc.AndLits(enc.OrLits(opts...), enc.EqLits(l, r)), nil
}

// Eval implements hhoudini.Pred.
func (p InSafeSetPred) Eval(c *circuit.Circuit, s circuit.Snapshot) (bool, error) {
	lv, rv, err := pairVals(c, s, p.Reg, p.pair)
	if err != nil {
		return false, err
	}
	if lv != rv || lv > 0xffffffff {
		return false, nil
	}
	return isa.Matches(uint32(lv), p.Pats), nil
}

// pairLits encodes the left/right copies of a base register in the chosen
// frame.
func pairLits(enc *circuit.Encoder, baseReg string, next bool) (l, r []sat.Lit, err error) {
	get := enc.RegLits
	if next {
		get = enc.RegNextLits
	}
	if l, err = get(miter.Left(baseReg)); err != nil {
		return nil, nil, err
	}
	if r, err = get(miter.Right(baseReg)); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// regPair is a base register resolved to the indices of its left and right
// copies in one product circuit, so Eval reads a snapshot without building
// the copies' names or looking them up. The mining oracle and Targets
// resolve every predicate they make; the zero value is resolved in no
// circuit.
type regPair struct {
	prod   *circuit.Circuit
	li, ri int
}

// resolvePair resolves a base register in a product.
func resolvePair(prod *miter.Product, baseReg string) (regPair, error) {
	li, ri, err := prod.RegPair(baseReg)
	if err != nil {
		return regPair{}, err
	}
	return regPair{prod: prod.Circuit, li: li, ri: ri}, nil
}

// pairVals reads the left/right copies of a base register from a product
// snapshot: through q when it was resolved in c, by name otherwise.
func pairVals(c *circuit.Circuit, s circuit.Snapshot, baseReg string, q regPair) (lv, rv uint64, err error) {
	if q.prod != c {
		q = regPair{prod: c, li: c.RegIndex(miter.Left(baseReg)), ri: c.RegIndex(miter.Right(baseReg))}
		if q.li < 0 || q.ri < 0 {
			return 0, 0, fmt.Errorf("veloct: base register %q not in product circuit", baseReg)
		}
	}
	return s[q.li], s[q.ri], nil
}
