package circuit

// NumLanes is the number of independent runs a Lanes simulates at once.
const NumLanes = 64

// Lanes is a 64-lane bit-parallel simulator for a Circuit: every node holds
// one uint64 whose bit k is the node's value in lane k, so one forward pass
// over the AIG advances 64 independent runs by one clock edge. Lane k
// behaves exactly as a Sim started from lane k's registers and driven with
// lane k's inputs. Inputs hold their values until set again. A Lanes is not
// safe for concurrent use; create one per goroutine.
type Lanes struct {
	c        *Circuit
	vals     []uint64 // per-node values; input nodes hold the driven inputs
	state    []uint64 // per-latch registered values
	regLatch []int    // first latch index of each register
}

// NewLanes creates a lane simulator with every lane in the reset state and
// every input zero.
func NewLanes(c *Circuit) *Lanes {
	l := &Lanes{
		c:        c,
		vals:     make([]uint64, len(c.nodes)),
		state:    make([]uint64, len(c.latches)),
		regLatch: make([]int, len(c.regs)),
	}
	for i, r := range c.regs {
		if len(r.Bits) > 0 {
			l.regLatch[i] = int(c.nodes[r.Bits[0].Node()].a)
		}
	}
	l.Reset()
	return l
}

// Reset restores every lane's registers to their reset values and drives
// zero on every input.
func (l *Lanes) Reset() {
	clear(l.vals)
	for i, lt := range l.c.latches {
		l.state[i] = -uint64(b2u(lt.init))
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// SetReg overwrites one lane's value of the register with declaration
// index reg (bits past 64 are cleared, as LoadSnapshot does).
func (l *Lanes) SetReg(lane, reg int, val uint64) {
	base, w := l.regLatch[reg], len(l.c.regs[reg].Bits)
	for bit := 0; bit < w; bit++ {
		setLane(&l.state[base+bit], lane, bit < 64 && val>>uint(bit)&1 != 0)
	}
}

// SetInput drives one lane's value of an input port (from Circuit.Input)
// for this and every later cycle until set again.
func (l *Lanes) SetInput(lane int, p Port, val uint64) {
	for bit, sig := range p.Bits {
		setLane(&l.vals[sig.Node()], lane, bit < 64 && val>>uint(bit)&1 != 0)
	}
}

func setLane(w *uint64, lane int, v bool) {
	*w = *w&^(1<<uint(lane)) | b2u(v)<<uint(lane)
}

// Step applies one clock edge to every lane: a single forward pass over the
// topologically ordered nodes, each AND computed branch-free. Input nodes
// keep their driven values and the constant node stays zero.
func (l *Lanes) Step() {
	vals := l.vals
	for id, n := range l.c.nodes {
		switch n.kind {
		case kAnd:
			a, b := n.a, n.b
			vals[id] = (vals[a>>1] ^ -uint64(a&1)) & (vals[b>>1] ^ -uint64(b&1))
		case kLatch:
			vals[id] = l.state[n.a]
		}
	}
	for i, lt := range l.c.latches {
		s := lt.next
		l.state[i] = vals[s>>1] ^ -uint64(s&1)
	}
}

// SnapshotInto writes one lane's architectural state into dst, which must
// have one entry per register; it is Sim.Snapshot for that lane.
func (l *Lanes) SnapshotInto(lane int, dst Snapshot) {
	for i, r := range l.c.regs {
		base, w := l.regLatch[i], len(r.Bits)
		if w > 64 {
			w = 64
		}
		var v uint64
		for bit, s := range l.state[base : base+w] {
			v |= (s >> uint(lane) & 1) << uint(bit)
		}
		dst[i] = v
	}
}

// Differ returns the mask of lanes in which registers a and b (declaration
// indices) hold different values, compared as Snapshot entries are.
func (l *Lanes) Differ(a, b int) uint64 {
	wa, wb := min(len(l.c.regs[a].Bits), 64), min(len(l.c.regs[b].Bits), 64)
	sa, sb := l.state[l.regLatch[a]:l.regLatch[a]+wa], l.state[l.regLatch[b]:l.regLatch[b]+wb]
	var d uint64
	for i := 0; i < max(wa, wb); i++ {
		var x, y uint64
		if i < wa {
			x = sa[i]
		}
		if i < wb {
			y = sb[i]
		}
		d |= x ^ y
	}
	return d
}
