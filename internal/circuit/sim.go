package circuit

import "fmt"

// Inputs maps input port names to the value driven on them for one cycle.
// Missing inputs default to zero.
type Inputs map[string]uint64

// Snapshot is a value of the full architectural state: one uint64 per
// register, indexed by register declaration order. Registers wider than 64
// bits keep only their low 64 bits in a snapshot; the designs in this
// repository keep registers at 64 bits or less.
type Snapshot []uint64

// Clone returns a deep copy of the snapshot.
func (s Snapshot) Clone() Snapshot { return append(Snapshot(nil), s...) }

// Equal reports whether two snapshots agree on every register.
func (s Snapshot) Equal(t Snapshot) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Sim is a cycle-accurate simulator for a Circuit. It implements the
// transition relation T: each Step applies one clock edge. A Sim is not
// safe for concurrent use; create one per goroutine.
type Sim struct {
	c     *Circuit
	vals  []bool // per-node combinational values for the current cycle
	state []bool // per-latch registered values
	next  []bool // Step's next-state buffer, kept so Step does not allocate
	inBuf []bool // per-input-bit values
	dirty bool   // vals stale relative to state/in
	cycle int
}

// NewSim creates a simulator with the circuit in its reset state.
func NewSim(c *Circuit) *Sim {
	s := &Sim{
		c:     c,
		vals:  make([]bool, len(c.nodes)),
		state: make([]bool, len(c.latches)),
		next:  make([]bool, len(c.latches)),
		inBuf: make([]bool, c.nInBits),
	}
	s.Reset()
	return s
}

// Reset restores all registers to their reset values.
func (s *Sim) Reset() {
	for i, l := range s.c.latches {
		s.state[i] = l.init
	}
	s.cycle = 0
	s.dirty = true
}

// Cycle returns the number of Steps since Reset.
func (s *Sim) Cycle() int { return s.cycle }

// SetInputs drives the primary inputs for the current cycle (before Step).
func (s *Sim) SetInputs(in Inputs) error {
	for i := range s.inBuf {
		s.inBuf[i] = false
	}
	for name, val := range in {
		p, ok := s.c.Input(name)
		if !ok {
			return fmt.Errorf("circuit: unknown input %q", name)
		}
		for bit, sig := range p.Bits {
			idx := int(s.c.nodes[sig.Node()].a)
			s.inBuf[idx] = bit < 64 && val&(1<<uint(bit)) != 0
		}
	}
	s.dirty = true
	return nil
}

// eval computes all combinational node values for the current state and
// inputs with a single forward pass (node ids are topologically ordered).
func (s *Sim) eval() {
	if !s.dirty {
		return
	}
	vals := s.vals
	for id, n := range s.c.nodes {
		switch n.kind {
		case kConst:
			vals[id] = false
		case kInput:
			vals[id] = s.inBuf[n.a]
		case kLatch:
			vals[id] = s.state[n.a]
		case kAnd:
			va := vals[n.a.Node()] != n.a.Inverted()
			vb := vals[n.b.Node()] != n.b.Inverted()
			vals[id] = va && vb
		}
	}
	s.dirty = false
}

// Step applies one clock edge with the given inputs.
func (s *Sim) Step(in Inputs) error {
	if err := s.SetInputs(in); err != nil {
		return err
	}
	s.eval()
	for i, l := range s.c.latches {
		s.next[i] = s.SignalValue(l.next)
	}
	s.state, s.next = s.next, s.state
	s.cycle++
	s.dirty = true
	return nil
}

// SignalValue returns the current combinational value of a signal
// (evaluating the circuit if necessary).
func (s *Sim) SignalValue(sig Signal) bool {
	s.eval()
	return s.vals[sig.Node()] != sig.Inverted()
}

// WordValue evaluates a word to an integer (low 64 bits for wider words).
func (s *Sim) WordValue(w Word) uint64 {
	var out uint64
	for i, sig := range w {
		if i >= 64 {
			break
		}
		if s.SignalValue(sig) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// PeekReg returns the registered (pre-edge) value of a register.
func (s *Sim) PeekReg(name string) (uint64, error) {
	r, ok := s.c.Reg(name)
	if !ok {
		return 0, fmt.Errorf("circuit: unknown register %q", name)
	}
	var out uint64
	for bit, sig := range r.Bits {
		if bit >= 64 {
			break
		}
		if s.state[s.c.nodes[sig.Node()].a] {
			out |= 1 << uint(bit)
		}
	}
	return out, nil
}

// PokeReg overwrites the current value of a register.
func (s *Sim) PokeReg(name string, val uint64) error {
	r, ok := s.c.Reg(name)
	if !ok {
		return fmt.Errorf("circuit: unknown register %q", name)
	}
	for bit, sig := range r.Bits {
		s.state[s.c.nodes[sig.Node()].a] = bit < 64 && val&(1<<uint(bit)) != 0
	}
	s.dirty = true
	return nil
}

// PeekWire evaluates a named wire under the currently driven inputs.
func (s *Sim) PeekWire(name string) (uint64, error) {
	w, ok := s.c.Wire(name)
	if !ok {
		return 0, fmt.Errorf("circuit: unknown wire %q", name)
	}
	return s.WordValue(w), nil
}

// Snapshot captures the current architectural state.
func (s *Sim) Snapshot() Snapshot {
	out := make(Snapshot, len(s.c.regs))
	for i, r := range s.c.regs {
		var v uint64
		for bit, sig := range r.Bits {
			if bit >= 64 {
				break
			}
			if s.state[s.c.nodes[sig.Node()].a] {
				v |= 1 << uint(bit)
			}
		}
		out[i] = v
	}
	return out
}

// LoadSnapshot restores architectural state captured by Snapshot.
func (s *Sim) LoadSnapshot(snap Snapshot) error {
	if len(snap) != len(s.c.regs) {
		return fmt.Errorf("circuit: snapshot has %d regs, circuit has %d", len(snap), len(s.c.regs))
	}
	for i, r := range s.c.regs {
		for bit, sig := range r.Bits {
			s.state[s.c.nodes[sig.Node()].a] = bit < 64 && snap[i]&(1<<uint(bit)) != 0
		}
	}
	s.dirty = true
	return nil
}

// InitSnapshot returns the reset-state snapshot of a circuit.
func InitSnapshot(c *Circuit) Snapshot {
	out := make(Snapshot, len(c.regs))
	for i, r := range c.regs {
		out[i] = r.Init
	}
	return out
}
