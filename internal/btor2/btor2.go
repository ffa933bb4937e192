// Package btor2 reads and writes the btor2 word-level model-checking format
// (Niemetz et al., CAV'18) for the sequential bit-vector fragment.
//
// The paper's toolchain compiles Chisel designs through yosys into btor2,
// which VeloCT consumes. This package provides the same entry point: a
// btor2 file parses into a circuit.Circuit (bit-blasted through the
// word-level builder), and any circuit can be exported back to btor2.
//
// Supported fragment: bitvec sorts up to 64 bits; input, state, init (with
// constant values), next, constraint, bad, output; constants (const,
// constd, consth, zero, one, ones); unary not/inc/dec/neg/redor/redand/
// redxor/uext/sext/slice; binary and/nand/or/nor/xor/xnor/implies/iff/
// eq/neq/ult/ulte/ugt/ugte/slt/slte/sgt/sgte/add/sub/mul/sll/srl/sra/
// concat; ternary ite. Arrays and uninterpreted sorts are rejected.
// States without an init line reset to zero (documented deviation:
// btor2 leaves them unconstrained).
package btor2

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hhoudini/internal/circuit"
)

// Design is a parsed btor2 model: the circuit plus the names of the wires
// holding properties and constraints.
type Design struct {
	Circuit *circuit.Circuit
	// Bads lists wire names of bad-state properties (each 1 bit wide).
	Bads []string
	// Constraints lists wire names of environment constraints.
	Constraints []string
	// Outputs lists named output wires.
	Outputs []string
}

type rawLine struct {
	num    int
	id     int64
	op     string
	fields []string // full token list including id and op
}

// Parse reads a btor2 model.
func Parse(r io.Reader) (*Design, error) {
	var lines []rawLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := sc.Text()
		if i := strings.IndexByte(text, ';'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		id, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("btor2 line %d: bad id %q", lineNo, fields[0])
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("btor2 line %d: missing operator", lineNo)
		}
		lines = append(lines, rawLine{num: lineNo, id: id, op: fields[1], fields: fields})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	p := newParser()
	// Pass 1: sorts and constants (so state init values are resolvable when
	// the state line is processed in pass 2), and init bindings.
	for _, ln := range lines {
		if err := p.prescan(ln); err != nil {
			return nil, fmt.Errorf("btor2 line %d: %w", ln.num, err)
		}
	}
	// Pass 2: build the circuit.
	for _, ln := range lines {
		if err := p.process(ln); err != nil {
			return nil, fmt.Errorf("btor2 line %d: %w", ln.num, err)
		}
	}
	return p.finish()
}

type parser struct {
	b      *circuit.Builder
	sorts  map[int64]int          // sort id → bit width
	words  map[int64]circuit.Word // node id → word
	widths map[int64]int          // node id → width
	consts map[int64]uint64       // const node id → value
	inits  map[int64]int64        // state id → init value node id
	states map[int64]string       // state id → register name
	design Design
	nBad   int
	nCon   int
}

func newParser() *parser {
	return &parser{
		b:      circuit.NewBuilder(),
		sorts:  make(map[int64]int),
		words:  make(map[int64]circuit.Word),
		widths: make(map[int64]int),
		consts: make(map[int64]uint64),
		inits:  make(map[int64]int64),
		states: make(map[int64]string),
	}
}

func (p *parser) prescan(ln rawLine) error {
	f := ln.fields
	switch ln.op {
	case "sort":
		if len(f) < 3 {
			return fmt.Errorf("sort: missing kind")
		}
		switch f[2] {
		case "bitvec":
			if len(f) < 4 {
				return fmt.Errorf("sort bitvec: missing width")
			}
			w, err := strconv.Atoi(f[3])
			if err != nil || w <= 0 || w > 64 {
				return fmt.Errorf("sort bitvec: unsupported width %q (1..64)", f[3])
			}
			p.sorts[ln.id] = w
		case "array":
			return fmt.Errorf("array sorts are not supported in this fragment")
		default:
			return fmt.Errorf("unknown sort kind %q", f[2])
		}
	case "const", "constd", "consth", "zero", "one", "ones":
		w, err := p.sortOf(f, 2)
		if err != nil {
			return err
		}
		v, err := constValue(ln.op, f, w)
		if err != nil {
			return err
		}
		p.consts[ln.id] = v
	case "init":
		if len(f) < 5 {
			return fmt.Errorf("init: want <sort> <state> <value>")
		}
		st, err1 := strconv.ParseInt(f[3], 10, 64)
		val, err2 := strconv.ParseInt(f[4], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("init: bad arguments")
		}
		p.inits[st] = val
	}
	return nil
}

func constValue(op string, f []string, width int) (uint64, error) {
	mask := uint64(1)<<uint(width) - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	switch op {
	case "zero":
		return 0, nil
	case "one":
		return 1 & mask, nil
	case "ones":
		return mask, nil
	}
	if len(f) < 4 {
		return 0, fmt.Errorf("%s: missing value", op)
	}
	base := 2
	switch op {
	case "constd":
		base = 10
	case "consth":
		base = 16
	}
	neg := false
	s := f[3]
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, base, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: bad value %q", op, f[3])
	}
	if neg {
		v = -v
	}
	return v & mask, nil
}

func (p *parser) sortOf(f []string, i int) (int, error) {
	if i >= len(f) {
		return 0, fmt.Errorf("missing sort argument")
	}
	sid, err := strconv.ParseInt(f[i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sort id %q", f[i])
	}
	w, ok := p.sorts[sid]
	if !ok {
		return 0, fmt.Errorf("undefined sort %d", sid)
	}
	return w, nil
}

// operand resolves a possibly-negated node id to a word.
func (p *parser) operand(f []string, i int) (circuit.Word, error) {
	if i >= len(f) {
		return nil, fmt.Errorf("missing operand %d", i)
	}
	id, err := strconv.ParseInt(f[i], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad operand %q", f[i])
	}
	neg := id < 0
	if neg {
		id = -id
	}
	w, ok := p.words[id]
	if !ok {
		return nil, fmt.Errorf("undefined node %d", id)
	}
	if neg {
		return p.b.NotW(w), nil
	}
	return w, nil
}

func (p *parser) define(id int64, w circuit.Word) {
	p.words[id] = w
	p.widths[id] = len(w)
}

func (p *parser) process(ln rawLine) error {
	b := p.b
	f := ln.fields
	switch ln.op {
	case "sort", "init":
		return nil // handled in prescan / at state creation

	case "const", "constd", "consth", "zero", "one", "ones":
		w, err := p.sortOf(f, 2)
		if err != nil {
			return err
		}
		p.define(ln.id, b.Const(p.consts[ln.id], w))
		return nil

	case "input":
		w, err := p.sortOf(f, 2)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("i%d", ln.id)
		if len(f) > 3 {
			name = f[3]
		}
		p.define(ln.id, b.Input(name, w))
		return nil

	case "state":
		w, err := p.sortOf(f, 2)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("s%d", ln.id)
		if len(f) > 3 {
			name = f[3]
		}
		var init uint64
		if vid, ok := p.inits[ln.id]; ok {
			cv, isConst := p.consts[vid]
			if !isConst {
				return fmt.Errorf("state %s: init value node %d is not a constant", name, vid)
			}
			init = cv
		}
		p.states[ln.id] = name
		p.define(ln.id, b.Register(name, w, init))
		return nil

	case "next":
		if len(f) < 5 {
			return fmt.Errorf("next: want <sort> <state> <value>")
		}
		st, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil {
			return fmt.Errorf("next: bad state id")
		}
		name, ok := p.states[st]
		if !ok {
			return fmt.Errorf("next: node %d is not a state", st)
		}
		val, err := p.operand(f, 4)
		if err != nil {
			return err
		}
		b.SetNext(name, val)
		return nil

	case "bad":
		w, err := p.operand(f, 2)
		if err != nil {
			return err
		}
		if len(w) != 1 {
			return fmt.Errorf("bad: property node must be 1 bit wide, got %d", len(w))
		}
		name := fmt.Sprintf("bad%d", p.nBad)
		if len(f) > 3 {
			name = f[3]
		}
		p.nBad++
		b.Name(name, w)
		p.design.Bads = append(p.design.Bads, name)
		return nil

	case "constraint":
		w, err := p.operand(f, 2)
		if err != nil {
			return err
		}
		if len(w) != 1 {
			return fmt.Errorf("constraint: node must be 1 bit wide, got %d", len(w))
		}
		name := fmt.Sprintf("constraint%d", p.nCon)
		p.nCon++
		b.Name(name, w)
		p.design.Constraints = append(p.design.Constraints, name)
		return nil

	case "output":
		w, err := p.operand(f, 2)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("o%d", ln.id)
		if len(f) > 3 {
			name = f[3]
		}
		b.Name(name, w)
		p.design.Outputs = append(p.design.Outputs, name)
		return nil
	}

	// Operator expressions all start with a result sort.
	width, err := p.sortOf(f, 2)
	if err != nil {
		return err
	}

	unary := func(fn func(circuit.Word) circuit.Word) error {
		a, err := p.operand(f, 3)
		if err != nil {
			return err
		}
		w := fn(a)
		if len(w) != width {
			w = p.b.ZeroExt(w, width)
		}
		p.define(ln.id, w)
		return nil
	}
	unaryBit := func(fn func(circuit.Word) circuit.Signal) error {
		return unary(func(a circuit.Word) circuit.Word { return circuit.Word{fn(a)} })
	}
	binary := func(fn func(a, c circuit.Word) circuit.Word) error {
		a, err := p.operand(f, 3)
		if err != nil {
			return err
		}
		c, err := p.operand(f, 4)
		if err != nil {
			return err
		}
		w := fn(a, c)
		if len(w) != width {
			w = p.b.ZeroExt(w, width)
		}
		p.define(ln.id, w)
		return nil
	}
	binaryBit := func(fn func(a, c circuit.Word) circuit.Signal) error {
		return binary(func(a, c circuit.Word) circuit.Word { return circuit.Word{fn(a, c)} })
	}

	switch ln.op {
	case "not":
		return unary(b.NotW)
	case "inc":
		return unary(b.Inc)
	case "dec":
		return unary(func(a circuit.Word) circuit.Word { return b.Sub(a, b.Const(1, len(a))) })
	case "neg":
		return unary(func(a circuit.Word) circuit.Word { return b.Sub(b.Const(0, len(a)), a) })
	case "redor":
		return unaryBit(b.RedOr)
	case "redand":
		return unaryBit(b.RedAnd)
	case "redxor":
		return unaryBit(b.RedXor)
	case "uext":
		return unary(func(a circuit.Word) circuit.Word { return b.ZeroExt(a, width) })
	case "sext":
		return unary(func(a circuit.Word) circuit.Word { return b.SignExt(a, width) })
	case "slice":
		if len(f) < 6 {
			return fmt.Errorf("slice: want <sort> <id> <hi> <lo>")
		}
		hi, err1 := strconv.Atoi(f[4])
		lo, err2 := strconv.Atoi(f[5])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("slice: bad bounds")
		}
		return unary(func(a circuit.Word) circuit.Word { return b.Extract(a, hi, lo) })
	case "and":
		return binary(b.AndW)
	case "nand":
		return binary(func(a, c circuit.Word) circuit.Word { return b.NotW(b.AndW(a, c)) })
	case "or":
		return binary(b.OrW)
	case "nor":
		return binary(func(a, c circuit.Word) circuit.Word { return b.NotW(b.OrW(a, c)) })
	case "xor":
		return binary(b.XorW)
	case "xnor":
		return binary(func(a, c circuit.Word) circuit.Word { return b.NotW(b.XorW(a, c)) })
	case "implies":
		return binaryBit(func(a, c circuit.Word) circuit.Signal {
			return b.Or2(b.Not(a[0]), c[0])
		})
	case "iff":
		return binaryBit(func(a, c circuit.Word) circuit.Signal { return b.Xnor2(a[0], c[0]) })
	case "eq":
		return binaryBit(b.Eq)
	case "neq":
		return binaryBit(b.Ne)
	case "ult":
		return binaryBit(b.Ult)
	case "ulte":
		return binaryBit(b.Ule)
	case "ugt":
		return binaryBit(func(a, c circuit.Word) circuit.Signal { return b.Ult(c, a) })
	case "ugte":
		return binaryBit(func(a, c circuit.Word) circuit.Signal { return b.Ule(c, a) })
	case "slt":
		return binaryBit(b.Slt)
	case "slte":
		return binaryBit(func(a, c circuit.Word) circuit.Signal { return b.Not(b.Slt(c, a)) })
	case "sgt":
		return binaryBit(func(a, c circuit.Word) circuit.Signal { return b.Slt(c, a) })
	case "sgte":
		return binaryBit(func(a, c circuit.Word) circuit.Signal { return b.Not(b.Slt(a, c)) })
	case "add":
		return binary(b.Add)
	case "sub":
		return binary(b.Sub)
	case "mul":
		return binary(b.Mul)
	case "sll":
		return binary(b.Shl)
	case "srl":
		return binary(b.Lshr)
	case "sra":
		return binary(b.Ashr)
	case "concat":
		// btor2 concat puts the FIRST operand in the high bits.
		return binary(func(a, c circuit.Word) circuit.Word { return b.Concat(c, a) })
	case "ite":
		cond, err := p.operand(f, 3)
		if err != nil {
			return err
		}
		tv, err := p.operand(f, 4)
		if err != nil {
			return err
		}
		fv, err := p.operand(f, 5)
		if err != nil {
			return err
		}
		p.define(ln.id, b.MuxW(cond[0], tv, fv))
		return nil
	}
	return fmt.Errorf("unsupported operator %q", ln.op)
}

func (p *parser) finish() (*Design, error) {
	c, err := p.b.Build()
	if err != nil {
		return nil, err
	}
	p.design.Circuit = c
	return &p.design, nil
}

// Write exports a circuit to btor2, bit-blasted to 1-bit sorts. Named
// wires listed in bads are emitted as bad properties and wires listed in
// constraints as environment constraints; all other wires become outputs.
// The result parses back (see tests) and is accepted by standard btor2
// tools.
func Write(w io.Writer, c *circuit.Circuit, bads, constraints []string) error {
	bw := bufio.NewWriter(w)
	next := int64(1)
	emit := func(format string, args ...any) int64 {
		id := next
		next++
		fmt.Fprintf(bw, "%d "+format+"\n", append([]any{id}, args...)...)
		return id
	}
	bit := emit("sort bitvec 1")
	zero := emit("zero %d", bit)

	// Map from circuit node signal value to btor2 id of the *positive* node.
	ids := make(map[int32]int64)
	litOf := func(s circuit.Signal) int64 {
		id, ok := ids[s.Node()]
		if !ok {
			panic(fmt.Sprintf("btor2: node %d not yet emitted", s.Node()))
		}
		if s.Inverted() {
			return -id
		}
		return id
	}
	ids[0] = zero // constant-false node

	// Inputs.
	for _, in := range c.Inputs() {
		for b2, sig := range in.Bits {
			ids[sig.Node()] = emit("input %d %s[%d]", bit, in.Name, b2)
		}
	}
	// States.
	type pendingNext struct {
		stateID int64
		sig     circuit.Signal
	}
	var nexts []pendingNext
	one := int64(0)
	for _, r := range c.Regs() {
		for b2, sig := range r.Bits {
			sid := emit("state %d %s[%d]", bit, r.Name, b2)
			ids[sig.Node()] = sid
			initVal := b2 < 64 && r.Init&(1<<uint(b2)) != 0
			if initVal {
				if one == 0 {
					one = emit("one %d", bit)
				}
				emit("init %d %d %d", bit, sid, one)
			} else {
				emit("init %d %d %d", bit, sid, zero)
			}
			nexts = append(nexts, pendingNext{sid, r.Next[b2]})
		}
	}
	// Gates in topological (node id) order.
	c.VisitAnds(func(node int32, a, b circuit.Signal) {
		ids[node] = emit("and %d %d %d", bit, litOf(a), litOf(b))
	})
	// Next-state bindings.
	for _, pn := range nexts {
		emit("next %d %d %d", bit, pn.stateID, litOf(pn.sig))
	}
	// Properties, constraints and outputs.
	badSet := make(map[string]bool, len(bads))
	for _, b2 := range bads {
		badSet[b2] = true
	}
	conSet := make(map[string]bool, len(constraints))
	for _, c2 := range constraints {
		conSet[c2] = true
	}
	for _, name := range c.WireNames() {
		word, _ := c.Wire(name)
		for b2, sig := range word {
			switch {
			case badSet[name] && len(word) == 1:
				emit("bad %d %s", litOf(sig), name)
			case badSet[name]:
				emit("bad %d %s[%d]", litOf(sig), name, b2)
			case conSet[name]:
				emit("constraint %d", litOf(sig))
			default:
				emit("output %d %s[%d]", litOf(sig), name, b2)
			}
		}
	}
	return bw.Flush()
}
