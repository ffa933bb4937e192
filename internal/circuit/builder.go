// Package circuit models synchronous sequential hardware as an
// and-inverter graph (AIG) with registers, together with a word-level
// construction API, a cycle-accurate simulator, cone-of-influence slicing
// and a Tseitin CNF encoder.
//
// A circuit is the paper's transition system TS = (S, T, s0): the registers
// are the state variables V, simulating one clock cycle applies T, and the
// register reset values form s0 (Definition 2.1). The 1-step
// cone-of-influence computation implements the slicing oracle O_slice of
// Algorithm 1, and the CNF encoder produces the formulas behind every
// inductivity and abduction query.
package circuit

import (
	"fmt"
	"sort"
)

// Signal identifies a boolean signal in the circuit: a node together with
// an optional negation. The encoding is 2*node for the plain signal and
// 2*node+1 for its complement. Node 0 is the constant-false node, so
// False==0 and True==1.
type Signal int32

// Constant signals.
const (
	False Signal = 0
	True  Signal = 1
)

// Node returns the underlying node index.
func (s Signal) Node() int32 { return int32(s >> 1) }

// Inverted reports whether the signal is the complement of its node.
func (s Signal) Inverted() bool { return s&1 == 1 }

// Not returns the complement signal.
func (s Signal) Not() Signal { return s ^ 1 }

func (s Signal) xorSign(b bool) Signal {
	if b {
		return s ^ 1
	}
	return s
}

// Word is a little-endian vector of signals (index 0 is the LSB).
type Word []Signal

// Width returns the number of bits in the word.
func (w Word) Width() int { return len(w) }

type nodeKind uint8

const (
	kConst nodeKind = iota
	kInput          // a = global input-bit index
	kLatch          // a = latch index
	kAnd            // a, b = operand signals
)

type node struct {
	kind nodeKind
	a, b Signal
}

// Port describes a named input or register as a word of node signals.
type Port struct {
	Name  string
	Width int
	Bits  Word // positive signals of the underlying nodes
}

type regDef struct {
	Port
	init uint64
	next Word // nil until SetNext
}

// Builder constructs a Circuit. Create with NewBuilder, declare inputs and
// registers, wire up next-state logic, then call Build.
//
// The builder performs structural hashing and constant folding on AND
// nodes, so equivalent subterms share nodes.
type Builder struct {
	nodes    []node
	hash     map[[2]Signal]Signal
	inputs   []Port
	regs     []regDef
	regIdx   map[string]int
	inIdx    map[string]int
	wires    map[string]Word
	nInBits  int
	nLatches int
	err      error
}

// NewBuilder returns an empty builder containing only the constant node.
func NewBuilder() *Builder {
	return &Builder{
		nodes:  []node{{kind: kConst}},
		hash:   make(map[[2]Signal]Signal),
		regIdx: make(map[string]int),
		inIdx:  make(map[string]int),
		wires:  make(map[string]Word),
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

func (b *Builder) newNode(n node) Signal {
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, n)
	return Signal(id << 1)
}

// Input declares a primary input word.
func (b *Builder) Input(name string, width int) Word {
	if _, dup := b.inIdx[name]; dup {
		b.fail("circuit: duplicate input %q", name)
	}
	if _, dup := b.regIdx[name]; dup {
		b.fail("circuit: input %q collides with register", name)
	}
	w := make(Word, width)
	for i := range w {
		w[i] = b.newNode(node{kind: kInput, a: Signal(b.nInBits)})
		b.nInBits++
	}
	b.inIdx[name] = len(b.inputs)
	b.inputs = append(b.inputs, Port{Name: name, Width: width, Bits: w})
	return w
}

// Register declares a state-holding register with the given reset value and
// returns its current-state word. The next-state function must be assigned
// later with SetNext; registers may be referenced before their next-state
// logic exists, which is how feedback loops are built.
func (b *Builder) Register(name string, width int, init uint64) Word {
	if _, dup := b.regIdx[name]; dup {
		b.fail("circuit: duplicate register %q", name)
	}
	if _, dup := b.inIdx[name]; dup {
		b.fail("circuit: register %q collides with input", name)
	}
	if width <= 0 {
		b.fail("circuit: register %q has width %d", name, width)
		width = 1
	}
	w := make(Word, width)
	for i := range w {
		w[i] = b.newNode(node{kind: kLatch, a: Signal(b.nLatches)})
		b.nLatches++
	}
	b.regIdx[name] = len(b.regs)
	b.regs = append(b.regs, regDef{
		Port: Port{Name: name, Width: width, Bits: w},
		init: init,
	})
	return w
}

// SetNext assigns the next-state function of a register declared with
// Register. The width must match.
func (b *Builder) SetNext(name string, next Word) {
	i, ok := b.regIdx[name]
	if !ok {
		b.fail("circuit: SetNext of unknown register %q", name)
		return
	}
	r := &b.regs[i]
	if len(next) != r.Width {
		b.fail("circuit: SetNext(%q): width %d, want %d", name, len(next), r.Width)
		return
	}
	if r.next != nil {
		b.fail("circuit: SetNext(%q) called twice", name)
		return
	}
	r.next = append(Word(nil), next...)
}

// KeepNext is shorthand for a register that holds its value: SetNext(name,
// current value). Useful for configuration state.
func (b *Builder) KeepNext(name string) {
	i, ok := b.regIdx[name]
	if !ok {
		b.fail("circuit: KeepNext of unknown register %q", name)
		return
	}
	b.SetNext(name, b.regs[i].Bits)
}

// RegWord returns the current-state word of a declared register, for use
// while still building (e.g. constructing monitor logic over a duplicated
// circuit).
func (b *Builder) RegWord(name string) (Word, bool) {
	i, ok := b.regIdx[name]
	if !ok {
		return nil, false
	}
	return b.regs[i].Bits, true
}

// InputWord returns the word of a declared input while still building.
func (b *Builder) InputWord(name string) (Word, bool) {
	i, ok := b.inIdx[name]
	if !ok {
		return nil, false
	}
	return b.inputs[i].Bits, true
}

// Name tags a word as a named wire, making it observable in simulation and
// look-ups. Wires carry no state.
func (b *Builder) Name(name string, w Word) {
	if _, dup := b.wires[name]; dup {
		b.fail("circuit: duplicate wire %q", name)
	}
	b.wires[name] = append(Word(nil), w...)
}

// --- Bit-level operations -------------------------------------------------

// And2 returns the conjunction of two signals, with constant folding and
// structural hashing.
func (b *Builder) And2(x, y Signal) Signal {
	// Folding rules.
	switch {
	case x == False || y == False || x == y.Not():
		return False
	case x == True:
		return y
	case y == True:
		return x
	case x == y:
		return x
	}
	if x > y {
		x, y = y, x
	}
	key := [2]Signal{x, y}
	if s, ok := b.hash[key]; ok {
		return s
	}
	s := b.newNode(node{kind: kAnd, a: x, b: y})
	b.hash[key] = s
	return s
}

// Not returns the complement of a signal.
func (b *Builder) Not(x Signal) Signal { return x.Not() }

// Or2 returns the disjunction of two signals.
func (b *Builder) Or2(x, y Signal) Signal { return b.And2(x.Not(), y.Not()).Not() }

// Xor2 returns the exclusive-or of two signals.
func (b *Builder) Xor2(x, y Signal) Signal {
	return b.Or2(b.And2(x, y.Not()), b.And2(x.Not(), y))
}

// Xnor2 returns the equivalence of two signals.
func (b *Builder) Xnor2(x, y Signal) Signal { return b.Xor2(x, y).Not() }

// Mux2 returns sel ? t : f.
func (b *Builder) Mux2(sel, t, f Signal) Signal {
	if t == f {
		return t
	}
	return b.Or2(b.And2(sel, t), b.And2(sel.Not(), f))
}

// AndN folds And2 over any number of signals (True for none).
func (b *Builder) AndN(xs ...Signal) Signal {
	acc := True
	for _, x := range xs {
		acc = b.And2(acc, x)
	}
	return acc
}

// OrN folds Or2 over any number of signals (False for none).
func (b *Builder) OrN(xs ...Signal) Signal {
	acc := False
	for _, x := range xs {
		acc = b.Or2(acc, x)
	}
	return acc
}

// --- Word-level operations ------------------------------------------------

// Const returns a constant word of the given width holding val's low bits.
func (b *Builder) Const(val uint64, width int) Word {
	w := make(Word, width)
	for i := range w {
		if i < 64 && val&(1<<uint(i)) != 0 {
			w[i] = True
		} else {
			w[i] = False
		}
	}
	return w
}

func (b *Builder) checkSameWidth(op string, x, y Word) {
	if len(x) != len(y) {
		b.fail("circuit: %s: width mismatch %d vs %d", op, len(x), len(y))
	}
}

// NotW complements each bit.
func (b *Builder) NotW(x Word) Word {
	out := make(Word, len(x))
	for i, s := range x {
		out[i] = s.Not()
	}
	return out
}

// AndW is the bitwise conjunction of two equal-width words.
func (b *Builder) AndW(x, y Word) Word {
	b.checkSameWidth("AndW", x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.And2(x[i], y[i])
	}
	return out
}

// OrW is the bitwise disjunction of two equal-width words.
func (b *Builder) OrW(x, y Word) Word {
	b.checkSameWidth("OrW", x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Or2(x[i], y[i])
	}
	return out
}

// XorW is the bitwise exclusive-or of two equal-width words.
func (b *Builder) XorW(x, y Word) Word {
	b.checkSameWidth("XorW", x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Xor2(x[i], y[i])
	}
	return out
}

// MuxW returns sel ? t : f, bitwise over equal-width words.
func (b *Builder) MuxW(sel Signal, t, f Word) Word {
	b.checkSameWidth("MuxW", t, f)
	out := make(Word, len(t))
	for i := range t {
		out[i] = b.Mux2(sel, t[i], f[i])
	}
	return out
}

// MaskW ands every bit of x with en (replication gate).
func (b *Builder) MaskW(en Signal, x Word) Word {
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.And2(en, x[i])
	}
	return out
}

// Add returns x + y (truncating, ripple-carry).
func (b *Builder) Add(x, y Word) Word {
	b.checkSameWidth("Add", x, y)
	out := make(Word, len(x))
	carry := False
	for i := range x {
		s := b.Xor2(b.Xor2(x[i], y[i]), carry)
		carry = b.Or2(b.And2(x[i], y[i]), b.And2(carry, b.Xor2(x[i], y[i])))
		out[i] = s
	}
	return out
}

// Sub returns x - y (two's complement).
func (b *Builder) Sub(x, y Word) Word {
	b.checkSameWidth("Sub", x, y)
	out := make(Word, len(x))
	carry := True
	ny := b.NotW(y)
	for i := range x {
		s := b.Xor2(b.Xor2(x[i], ny[i]), carry)
		carry = b.Or2(b.And2(x[i], ny[i]), b.And2(carry, b.Xor2(x[i], ny[i])))
		out[i] = s
	}
	return out
}

// Inc returns x + 1.
func (b *Builder) Inc(x Word) Word { return b.Add(x, b.Const(1, len(x))) }

// Eq returns the single-bit equality of two equal-width words.
func (b *Builder) Eq(x, y Word) Signal {
	b.checkSameWidth("Eq", x, y)
	acc := True
	for i := range x {
		acc = b.And2(acc, b.Xnor2(x[i], y[i]))
	}
	return acc
}

// EqConst compares a word against a constant.
func (b *Builder) EqConst(x Word, val uint64) Signal {
	return b.Eq(x, b.Const(val, len(x)))
}

// Ne returns the single-bit disequality of two words.
func (b *Builder) Ne(x, y Word) Signal { return b.Eq(x, y).Not() }

// IsZero tests a word against zero.
func (b *Builder) IsZero(x Word) Signal { return b.RedOr(x).Not() }

// Ult returns the unsigned x < y.
func (b *Builder) Ult(x, y Word) Signal {
	b.checkSameWidth("Ult", x, y)
	lt := False
	for i := 0; i < len(x); i++ {
		bitLt := b.And2(x[i].Not(), y[i])
		bitEq := b.Xnor2(x[i], y[i])
		lt = b.Or2(bitLt, b.And2(bitEq, lt))
	}
	return lt
}

// Ule returns the unsigned x <= y.
func (b *Builder) Ule(x, y Word) Signal { return b.Ult(y, x).Not() }

// Slt returns the signed x < y.
func (b *Builder) Slt(x, y Word) Signal {
	n := len(x)
	if n == 0 {
		return False
	}
	sx, sy := x[n-1], y[n-1]
	// x<y signed: (sx ∧ ¬sy) ∨ (sx==sy ∧ ult(x,y)).
	return b.Or2(b.And2(sx, sy.Not()), b.And2(b.Xnor2(sx, sy), b.Ult(x, y)))
}

// ShlC shifts left by a constant amount, filling with zeros.
func (b *Builder) ShlC(x Word, k int) Word {
	out := make(Word, len(x))
	for i := range out {
		if i-k >= 0 && i-k < len(x) {
			out[i] = x[i-k]
		} else {
			out[i] = False
		}
	}
	return out
}

// LshrC shifts right logically by a constant amount.
func (b *Builder) LshrC(x Word, k int) Word {
	out := make(Word, len(x))
	for i := range out {
		if i+k < len(x) {
			out[i] = x[i+k]
		} else {
			out[i] = False
		}
	}
	return out
}

// AshrC shifts right arithmetically by a constant amount.
func (b *Builder) AshrC(x Word, k int) Word {
	out := make(Word, len(x))
	sign := False
	if len(x) > 0 {
		sign = x[len(x)-1]
	}
	for i := range out {
		if i+k < len(x) {
			out[i] = x[i+k]
		} else {
			out[i] = sign
		}
	}
	return out
}

// Shl is a barrel shifter: x << amt, where amt is a word.
func (b *Builder) Shl(x Word, amt Word) Word { return b.barrel(x, amt, b.ShlC, False) }

// Lshr is a barrel shifter: logical x >> amt.
func (b *Builder) Lshr(x Word, amt Word) Word { return b.barrel(x, amt, b.LshrC, False) }

// Ashr is a barrel shifter: arithmetic x >> amt.
func (b *Builder) Ashr(x Word, amt Word) Word {
	sign := False
	if len(x) > 0 {
		sign = x[len(x)-1]
	}
	return b.barrel(x, amt, b.AshrC, sign)
}

func (b *Builder) barrel(x Word, amt Word, shift func(Word, int) Word, fill Signal) Word {
	res := append(Word(nil), x...)
	overflow := False
	for i, bit := range amt {
		if 1<<uint(i) < len(x) && i < 31 {
			res = b.MuxW(bit, shift(res, 1<<uint(i)), res)
		} else {
			overflow = b.Or2(overflow, bit)
		}
	}
	fillW := make(Word, len(x))
	for i := range fillW {
		fillW[i] = fill
	}
	return b.MuxW(overflow, fillW, res)
}

// Mul returns the truncating product of two equal-width words (shift-add).
func (b *Builder) Mul(x, y Word) Word {
	b.checkSameWidth("Mul", x, y)
	acc := b.Const(0, len(x))
	for i := range y {
		part := b.MaskW(y[i], b.ShlC(x, i))
		acc = b.Add(acc, part)
	}
	return acc
}

// ZeroExt widens x to the given width with zeros (or truncates).
func (b *Builder) ZeroExt(x Word, width int) Word {
	out := make(Word, width)
	for i := range out {
		if i < len(x) {
			out[i] = x[i]
		} else {
			out[i] = False
		}
	}
	return out
}

// SignExt widens x to the given width replicating the sign bit.
func (b *Builder) SignExt(x Word, width int) Word {
	out := make(Word, width)
	sign := False
	if len(x) > 0 {
		sign = x[len(x)-1]
	}
	for i := range out {
		if i < len(x) {
			out[i] = x[i]
		} else {
			out[i] = sign
		}
	}
	return out
}

// Extract returns bits hi..lo inclusive (little-endian indices).
func (b *Builder) Extract(x Word, hi, lo int) Word {
	if lo < 0 || hi >= len(x) || lo > hi {
		b.fail("circuit: Extract[%d:%d] out of range for width %d", hi, lo, len(x))
		return make(Word, 1)
	}
	return append(Word(nil), x[lo:hi+1]...)
}

// Bit returns bit i of x as a signal.
func (b *Builder) Bit(x Word, i int) Signal {
	if i < 0 || i >= len(x) {
		b.fail("circuit: Bit(%d) out of range for width %d", i, len(x))
		return False
	}
	return x[i]
}

// Concat joins words, lowest word first.
func (b *Builder) Concat(lo Word, rest ...Word) Word {
	out := append(Word(nil), lo...)
	for _, w := range rest {
		out = append(out, w...)
	}
	return out
}

// RedOr returns the OR-reduction of a word.
func (b *Builder) RedOr(x Word) Signal { return b.OrN(x...) }

// RedAnd returns the AND-reduction of a word.
func (b *Builder) RedAnd(x Word) Signal { return b.AndN(x...) }

// RedXor returns the XOR-reduction of a word.
func (b *Builder) RedXor(x Word) Signal {
	acc := False
	for _, s := range x {
		acc = b.Xor2(acc, s)
	}
	return acc
}

// --- Finalization -----------------------------------------------------------

// Build finalizes the circuit. Every register must have a next-state
// function. The builder must not be used afterwards.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i := range b.regs {
		if b.regs[i].next == nil {
			return nil, fmt.Errorf("circuit: register %q has no next-state function", b.regs[i].Name)
		}
	}
	c := &Circuit{
		nodes:   b.nodes,
		inputs:  b.inputs,
		inIdx:   b.inIdx,
		regIdx:  b.regIdx,
		wires:   b.wires,
		nInBits: b.nInBits,
		latches: make([]latch, b.nLatches),
		regs:    make([]Reg, len(b.regs)),
	}
	for i, rd := range b.regs {
		c.regs[i] = Reg{Port: rd.Port, Init: rd.init, Next: rd.next}
		for bit, sig := range rd.Bits {
			li := int(c.nodes[sig.Node()].a)
			c.latches[li] = latch{
				node: sig.Node(),
				next: rd.next[bit],
				init: bit < 64 && rd.init&(1<<uint(bit)) != 0,
				reg:  i,
				bit:  bit,
			}
		}
	}
	// Sanity: AND node operands must precede the node (needed by the
	// simulator's single forward pass).
	for id, n := range c.nodes {
		if n.kind == kAnd {
			if n.a.Node() >= int32(id) || n.b.Node() >= int32(id) {
				return nil, fmt.Errorf("circuit: node ordering violated at %d", id)
			}
		}
	}
	return c, nil
}

// sortedNames returns map keys in deterministic order (test helper shared
// across the package).
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
