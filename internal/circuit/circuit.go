package circuit

import (
	"fmt"
	"sort"
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

	supports map[string][]string // memoized per-register 1-step COI
	supMu    sync.Mutex

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

// RegNames returns all register names, sorted.
func (c *Circuit) RegNames() []string { return sortedNames(c.regIdx) }

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

// RegSupport computes the 1-step cone of influence of a register at
// register granularity: the names of all registers whose current value can
// affect the register's next value. This is the slicing oracle O_slice of
// Algorithm 1 specialized to sequential circuits (footnote 3 of the paper).
// Results are memoized; the method is safe for concurrent use.
func (c *Circuit) RegSupport(name string) ([]string, error) {
	i, ok := c.regIdx[name]
	if !ok {
		return nil, fmt.Errorf("circuit: unknown register %q", name)
	}
	c.supMu.Lock()
	defer c.supMu.Unlock()
	if s, ok := c.supports[name]; ok {
		return s, nil
	}
	seen := make(map[int32]bool)
	regSet := make(map[int]bool)
	var stack []int32
	push := func(s Signal) {
		n := s.Node()
		if !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for _, s := range c.regs[i].Next {
		push(s)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := c.nodes[n]
		switch nd.kind {
		case kAnd:
			push(nd.a)
			push(nd.b)
		case kLatch:
			regSet[c.latches[nd.a].reg] = true
		}
	}
	out := make([]string, 0, len(regSet))
	for ri := range regSet {
		out = append(out, c.regs[ri].Name)
	}
	sort.Strings(out)
	c.supports[name] = out
	return out, nil
}

// WarmSupports precomputes the 1-step COI of every register. Call once
// before sharing the circuit across goroutines.
func (c *Circuit) WarmSupports() {
	for _, r := range c.regs {
		c.RegSupport(r.Name) //nolint:errcheck // name is known-valid
	}
}
