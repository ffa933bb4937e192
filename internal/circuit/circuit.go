package circuit

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Reg is a finalized register: its current-state word, reset value, and
// next-state word.
type Reg struct {
	Port
	Init uint64
	Next Word
}

type latch struct {
	node int32  // node id of the latch output
	next Signal // next-state function
	init bool
	reg  int // register index
	bit  int // bit position within the register
}

// Circuit is a finalized synchronous circuit (a transition system). It is
// immutable and safe for concurrent use by simulators and encoders.
type Circuit struct {
	nodes   []node
	inputs  []Port
	regs    []Reg
	latches []latch
	inIdx   map[string]int
	regIdx  map[string]int
	wires   map[string]Word
	nInBits int

	supOnce  sync.Once
	supports [][]int32 // register index → its 1-step COI (see Support)

	fpState // memoized cone fingerprints (see fingerprint.go)
}

// NumNodes returns the number of AIG nodes (including constants and leaves).
func (c *Circuit) NumNodes() int { return len(c.nodes) }

// NumStateBits returns the total number of register bits — the paper's
// "design size in # of state bits" (Table 1).
func (c *Circuit) NumStateBits() int { return len(c.latches) }

// NumInputBits returns the total number of primary input bits.
func (c *Circuit) NumInputBits() int { return c.nInBits }

// Inputs returns the declared input ports in declaration order.
func (c *Circuit) Inputs() []Port { return c.inputs }

// Regs returns the registers in declaration order.
func (c *Circuit) Regs() []Reg { return c.regs }

// Reg looks a register up by name.
func (c *Circuit) Reg(name string) (Reg, bool) {
	i, ok := c.regIdx[name]
	if !ok {
		return Reg{}, false
	}
	return c.regs[i], true
}

// RegIndex returns the dense index of a register, or -1.
func (c *Circuit) RegIndex(name string) int {
	i, ok := c.regIdx[name]
	if !ok {
		return -1
	}
	return i
}

// Input looks an input port up by name.
func (c *Circuit) Input(name string) (Port, bool) {
	i, ok := c.inIdx[name]
	if !ok {
		return Port{}, false
	}
	return c.inputs[i], true
}

// Wire looks a named wire up.
func (c *Circuit) Wire(name string) (Word, bool) {
	w, ok := c.wires[name]
	return w, ok
}

// WireNames returns the declared wire names, sorted.
func (c *Circuit) WireNames() []string { return sortedNames(c.wires) }

// String summarizes the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit{regs: %d, state bits: %d, input bits: %d, nodes: %d}",
		len(c.regs), len(c.latches), c.nInBits, len(c.nodes))
}

// VisitAnds calls fn for every AND gate in topological order (operands are
// always visited before the gates that use them). Used by exporters.
func (c *Circuit) VisitAnds(fn func(node int32, a, b Signal)) {
	for id, n := range c.nodes {
		if n.kind == kAnd {
			fn(int32(id), n.a, n.b)
		}
	}
}

// Support returns the 1-step cone of influence of register ri at register
// granularity: the indices, in register-name order, of all registers whose
// current value can affect the register's next value. This is the slicing
// oracle O_slice of Algorithm 1 specialized to sequential circuits
// (footnote 3 of the paper). The first call computes every register's
// support in one pass; the method is safe for concurrent use, and callers
// must not modify the result.
func (c *Circuit) Support(ri int) []int32 {
	c.supOnce.Do(c.computeSupports)
	return c.supports[ri]
}

// computeSupports walks each register's next-state fan-in down to latches.
// One epoch-stamped mark array serves every walk: a node is visited in
// register ri's walk iff its mark is ri+1. A walk collects name ranks, so
// sorting them yields the name order keys and miners read supports in.
func (c *Circuit) computeSupports() {
	byName := make([]int32, len(c.regs)) // name rank → register index
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(c.regs[a].Name, c.regs[b].Name) })
	rank := make([]int32, len(c.regs)) // register index → name rank
	for k, ri := range byName {
		rank[ri] = int32(k)
	}

	mark := make([]uint32, len(c.nodes))
	regMark := make([]uint32, len(c.regs))
	ends := make([]int, len(c.regs))
	var flat []int32
	var stack []int32
	for ri, r := range c.regs {
		epoch := uint32(ri + 1)
		start := len(flat)
		for _, s := range r.Next {
			if n := s.Node(); mark[n] != epoch {
				mark[n] = epoch
				stack = append(stack, n)
			}
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch nd := c.nodes[n]; nd.kind {
			case kAnd:
				for _, op := range [2]int32{nd.a.Node(), nd.b.Node()} {
					if mark[op] != epoch {
						mark[op] = epoch
						stack = append(stack, op)
					}
				}
			case kLatch:
				if reg := c.latches[nd.a].reg; regMark[reg] != epoch {
					regMark[reg] = epoch
					flat = append(flat, rank[reg])
				}
			}
		}
		sup := flat[start:]
		slices.Sort(sup)
		for k, r := range sup {
			sup[k] = byName[r]
		}
		ends[ri] = len(flat)
	}
	c.supports = make([][]int32, len(c.regs))
	start := 0
	for ri, end := range ends {
		c.supports[ri] = flat[start:end:end]
		start = end
	}
}

// RegSupport returns the names, sorted, of the registers in the named
// register's 1-step cone of influence (see Support).
func (c *Circuit) RegSupport(name string) ([]string, error) {
	i, ok := c.regIdx[name]
	if !ok {
		return nil, fmt.Errorf("circuit: unknown register %q", name)
	}
	sup := c.Support(i)
	out := make([]string, len(sup))
	for k, ri := range sup {
		out[k] = c.regs[ri].Name
	}
	return out, nil
}

// WarmSupports computes every register's 1-step cone of influence now
// rather than on first use.
func (c *Circuit) WarmSupports() { c.supOnce.Do(c.computeSupports) }
