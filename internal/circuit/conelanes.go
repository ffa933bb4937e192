package circuit

import (
	"slices"

	"hhoudini/internal/sat"
)

// ConeLanes steps 64 variants of a satisfying assignment one transition
// forward over exactly the nodes an Encoder has encoded: the query's own
// cone (~1–2k nodes on the OoO products), not the whole circuit that
// Lanes.Step walks. Load reads the solver's current model into every lane;
// SetReg overrides one lane's current-state value of a register; Step
// evaluates the encoded AND gates in encoding order, which is topological,
// with Lanes' branch-free AND; Next reads a lane's next-state value of a
// register. Inputs keep their model values in every lane. A ConeLanes is
// not safe for concurrent use.
type ConeLanes struct {
	e      *Encoder
	done   int       // prefix of e.order compiled into leaves and ands
	leaves []sat.Var // encoded constant, input and latch nodes
	ands   []sat.Lit // per encoded AND gate: its own literal, then operands a and b
	base   []uint64  // per leaf: its model value, in every lane
	vals   []uint64  // per solver variable: its value in each lane
}

// ConeLanes returns a lane stepper over the encoder's cone. It follows
// nodes encoded after it was made: Load compiles them in.
func (e *Encoder) ConeLanes() *ConeLanes { return &ConeLanes{e: e} }

// compile extends the leaf and gate lists with the nodes encoded since the
// last call.
func (c *ConeLanes) compile() {
	e := c.e
	c.ands = slices.Grow(c.ands, 3*(len(e.order)-c.done))
	for _, n := range e.order[c.done:] {
		nd := e.c.nodes[n]
		if nd.kind != kAnd {
			c.leaves = append(c.leaves, e.lits[n].Var())
			continue
		}
		c.ands = append(c.ands, e.lits[n],
			e.lits[nd.a.Node()].XorSign(nd.a.Inverted()),
			e.lits[nd.b.Node()].XorSign(nd.b.Inverted()))
	}
	c.done = len(e.order)
	if nv := e.S.NumVars(); len(c.vals) < nv {
		c.vals = make([]uint64, nv)
	}
}

// Load reads the solver's most recent model into every lane. It panics if
// the last Solve did not return Sat.
func (c *ConeLanes) Load() {
	c.compile()
	c.base = c.base[:0]
	for _, v := range c.leaves {
		c.base = append(c.base, -b2u(c.e.S.ModelValue(sat.PosLit(v))))
	}
	c.Reset()
}

// Reset undoes every SetReg since the last Load or Reset.
func (c *ConeLanes) Reset() {
	for i, v := range c.leaves {
		c.vals[v] = c.base[i]
	}
}

// wordLits returns the literals of an encoded word, or false when a bit is
// not encoded or the word is wider than 64 bits.
func (c *ConeLanes) wordLits(w Word, dst []sat.Lit) ([]sat.Lit, bool) {
	if len(w) > 64 {
		return nil, false
	}
	dst = dst[:0]
	for _, sig := range w {
		l := c.e.lits[sig.Node()]
		if l == litUnset {
			return nil, false
		}
		dst = append(dst, l.XorSign(sig.Inverted()))
	}
	return dst, true
}

// Reg returns the model's current-state value of the register with
// declaration index reg, and false when the register is not wholly
// encoded or wider than 64 bits. It reads the model Load read.
func (c *ConeLanes) Reg(reg int) (uint64, bool) {
	var buf [64]sat.Lit
	ls, ok := c.wordLits(c.e.c.regs[reg].Bits, buf[:])
	if !ok {
		return 0, false
	}
	var v uint64
	for bit, l := range ls {
		v |= b2u(c.e.S.ModelValue(l)) << uint(bit)
	}
	return v, true
}

// SetReg overrides one lane's current-state value of the register with
// declaration index reg. It returns false, and changes nothing, when the
// register is not wholly encoded or wider than 64 bits.
func (c *ConeLanes) SetReg(lane, reg int, val uint64) bool {
	var buf [64]sat.Lit
	ls, ok := c.wordLits(c.e.c.regs[reg].Bits, buf[:])
	if !ok {
		return false
	}
	for bit, l := range ls {
		setLane(&c.vals[l.Var()], lane, (val>>uint(bit)&1 != 0) != l.Neg())
	}
	return true
}

// Step evaluates every encoded AND gate in every lane.
func (c *ConeLanes) Step() {
	vals, ands := c.vals, c.ands
	for i := 0; i+2 < len(ands); i += 3 {
		a, b := ands[i+1], ands[i+2]
		vals[ands[i]>>1] = (vals[a>>1] ^ -uint64(a&1)) & (vals[b>>1] ^ -uint64(b&1))
	}
}

// Next returns one lane's next-state value of the register with
// declaration index reg as of the last Step, and false when its next-state
// function is not wholly encoded or it is wider than 64 bits.
func (c *ConeLanes) Next(lane, reg int) (uint64, bool) {
	var buf [64]sat.Lit
	ls, ok := c.wordLits(c.e.c.regs[reg].Next, buf[:])
	if !ok {
		return 0, false
	}
	var v uint64
	for bit, l := range ls {
		v |= (c.vals[l.Var()]>>uint(lane)&1 ^ uint64(l&1)) << uint(bit)
	}
	return v, true
}
