package circuit

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// Fingerprint returns a structural identity hash of the circuit: every AIG
// node (kind and operands), every input port, every register (name, width,
// reset value, next-state function) and every named wire participate. Two
// circuits with equal fingerprints are structurally identical transition
// systems, so abduction answers derived from one are sound to reuse on the
// other.
//
// The fingerprint is the top half of the whole-system verification cache key
// (the other half is the environment-assumption identity, System.EnvKey in
// internal/hhoudini): it is what makes "same design, new Learner" cache
// hits safe and "changed design" runs miss. The hash is computed once per
// Circuit and memoized; Circuit is immutable, so the value never changes.
func (c *Circuit) Fingerprint() uint64 {
	c.fpOnce.Do(func() { c.fp = c.computeFingerprint() })
	return c.fp
}

func (c *Circuit) computeFingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	sig := func(s Signal) { u64(uint64(int64(s))) }
	word := func(w Word) {
		u64(uint64(len(w)))
		for _, s := range w {
			sig(s)
		}
	}

	str("hhoudini-circuit-fp/v1")

	// AIG structure. Node ids are assigned in construction order, so the
	// (kind, a, b) stream pins the whole graph.
	u64(uint64(len(c.nodes)))
	for _, n := range c.nodes {
		u64(uint64(n.kind))
		sig(n.a)
		sig(n.b)
	}

	// Interface: input ports and registers with resets and next-state
	// functions (declaration order is part of the identity).
	u64(uint64(len(c.inputs)))
	for _, p := range c.inputs {
		str(p.Name)
		word(p.Bits)
	}
	u64(uint64(len(c.regs)))
	for _, r := range c.regs {
		str(r.Name)
		u64(r.Init)
		word(r.Bits)
		word(r.Next)
	}

	// Named wires (predicates may encode through them).
	names := make([]string, 0, len(c.wires))
	for name := range c.wires {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		str(name)
		word(c.wires[name])
	}
	return h.Sum64()
}

// fpState is embedded in Circuit (see circuit.go); split out here so the
// fingerprint machinery stays in one file.
type fpState struct {
	fpOnce sync.Once
	fp     uint64

	coneOnce sync.Once
	cones    *coneTable

	inRefOnce sync.Once
	inBitPort []int32 // global input-bit index → input port index
	inBitOff  []int32 // global input-bit index → bit offset within the port
}

// adoptIdentity shares the memoized structural identity of an equal circuit:
// the whole-circuit fingerprint and the cone-fingerprint memo table. Only
// valid when the two circuits are structurally identical (same node array,
// interface, registers and wires) — callers must verify that first.
func (c *Circuit) adoptIdentity(src *Circuit) {
	c.fpOnce.Do(func() { c.fp = src.Fingerprint() })
	c.coneOnce.Do(func() { c.cones = src.coneTab() })
}

// ConeFP is a 128-bit canonical fingerprint of a register fan-in cone. Two
// cones with equal fingerprints are structurally isomorphic under the
// canonical local numbering, so abduction answers derived from one are
// sound to reuse on the other even when the surrounding designs differ. 128 bits because a
// collision would be unsound, not merely slow (same reasoning as the
// verification cache's dual-hash verdict keys).
type ConeFP struct {
	A, B uint64
}

// Hex renders the fingerprint as a fixed-width 32-character hex string —
// the form embedded in cache keys.
func (f ConeFP) Hex() string {
	var b [32]byte
	hexPut(b[:16], f.A)
	hexPut(b[16:], f.B)
	return string(b[:])
}

func hexPut(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// coneTable memoizes cone traversals per support set. It is shared between
// a circuit and its pure duplicates (see adoptIdentity): node ids are
// identical across a pure replay, so the memo transfers verbatim.
type coneTable struct {
	mu sync.Mutex
	m  map[string]ConeFP
}

func (c *Circuit) coneTab() *coneTable {
	c.coneOnce.Do(func() {
		if c.cones == nil {
			c.cones = &coneTable{m: make(map[string]ConeFP)}
		}
	})
	return c.cones
}

// canonSupport sorts, dedups and joins a support-register list into the
// cone memo key. Empty names are dropped.
func canonSupport(support []string) string {
	s := make([]string, 0, len(support))
	for _, name := range support {
		if name != "" {
			s = append(s, name)
		}
	}
	sort.Strings(s)
	out := s[:0]
	var prev string
	for i, name := range s {
		if i == 0 || name != prev {
			out = append(out, name)
		}
		prev = name
	}
	return strings.Join(out, "\x00")
}

// ConeFingerprint returns the canonical fingerprint of the union fan-in
// cone of the named registers: for each register (sorted by name) it hashes
// the register interface (name, width, reset value) and the structure of
// its next-state functions under a local topological numbering, with latch
// and input leaves identified by (register, bit) and (port, bit) rather
// than global node id. The hash is therefore invariant to global node ids,
// declaration order, and any part of the design outside the cone. The full
// primary-input interface (sorted names and widths) also participates:
// environment assumptions encode over input ports, so cones are only
// interchangeable between designs that agree on the inputs.
//
// Results are memoized per support set; repeated cones cost one traversal.
// Safe for concurrent use.
func (c *Circuit) ConeFingerprint(support []string) ConeFP {
	key := canonSupport(support)
	t := c.coneTab()
	t.mu.Lock()
	if fp, ok := t.m[key]; ok {
		t.mu.Unlock()
		return fp
	}
	t.mu.Unlock()

	var names []string
	if key != "" {
		names = strings.Split(key, "\x00")
	}
	fp := c.computeCone(names)

	// A concurrent caller may have stored the same key meanwhile; the
	// fingerprint is a pure function of the support, so either write wins.
	t.mu.Lock()
	t.m[key] = fp
	t.mu.Unlock()
	return fp
}

// ch128 is a per-node canonical structure hash: a 128-bit digest of the
// node's unfolded expression tree with AND operands combined in an
// order-insensitive way. The builder normalizes AND operand order by global
// signal value (And2 swaps), so stored operand order varies with
// declaration order; canonicalization must therefore not depend on it —
// a∧b is symmetric, so commuting operands preserves the function the cone
// computes.
type ch128 struct{ a, b uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// chWriter feeds one byte stream to the FNV-1 and FNV-1a variants at once.
type chWriter ch128

func newCHWriter() chWriter { return chWriter{a: fnvOffset64, b: fnvOffset64} }

func (w *chWriter) byte(c byte) {
	w.a = (w.a ^ uint64(c)) * fnvPrime64 // FNV-1a
	w.b = w.b*fnvPrime64 ^ uint64(c)     // FNV-1
}

func (w *chWriter) u64(v uint64) {
	for i := 0; i < 8; i++ {
		w.byte(byte(v))
		v >>= 8
	}
}

func (w *chWriter) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *chWriter) str(s string) {
	w.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.byte(s[i])
	}
}

func (w *chWriter) sum() ch128 { return ch128(*w) }

// chLess orders (structure hash, inversion) operand pairs canonically.
func chLess(x ch128, xi bool, y ch128, yi bool) bool {
	if x.a != y.a {
		return x.a < y.a
	}
	if x.b != y.b {
		return x.b < y.b
	}
	return !xi && yi
}

// computeCone performs the canonical traversal in two passes over the union
// next-state cone of the (already sorted) support registers. Pass one
// computes a per-node canonical structure hash bottom-up, insensitive to
// AND operand order. Pass two walks the cone again visiting AND operands in
// canonical (structure-hash) order, assigns dense local ids in discovery
// order, and hashes each node's structure — expressed over local ids —
// exactly once. The same byte stream feeds two independent FNV variants to
// form the 128-bit fingerprint.
func (c *Circuit) computeCone(support []string) ConeFP {
	h1 := fnv.New64a()
	h2 := fnv.New64()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h1.Write(buf[:])
		h2.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h1.Write([]byte(s))
		h2.Write([]byte(s))
	}
	boolBit := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}

	str("hhoudini-cone-fp/v1")

	// Primary-input interface (sorted): pins the environment-encoding
	// determinism across designs sharing this cone.
	inNames := make([]string, len(c.inputs))
	for i, p := range c.inputs {
		inNames[i] = p.Name
	}
	sort.Strings(inNames)
	u64(uint64(len(inNames)))
	for _, nm := range inNames {
		p := c.inputs[c.inIdx[nm]]
		str("in")
		str(p.Name)
		u64(uint64(p.Width))
	}

	// Pass one: order-insensitive per-node structure hashes, bottom-up.
	ch := make(map[int32]ch128)
	type frame struct {
		id       int32
		expanded bool
	}
	var stack []frame
	chVisit := func(root int32) {
		if _, ok := ch[root]; ok {
			return
		}
		stack = append(stack[:0], frame{id: root})
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := ch[f.id]; ok {
				continue
			}
			nd := c.nodes[f.id]
			if nd.kind == kAnd && !f.expanded {
				stack = append(stack, frame{id: f.id, expanded: true},
					frame{id: nd.a.Node()}, frame{id: nd.b.Node()})
				continue
			}
			w := newCHWriter()
			switch nd.kind {
			case kAnd:
				pa, pb := ch[nd.a.Node()], ch[nd.b.Node()]
				ia, ib := nd.a.Inverted(), nd.b.Inverted()
				if chLess(pb, ib, pa, ia) {
					pa, pb, ia, ib = pb, pa, ib, ia
				}
				w.byte('a')
				w.u64(pa.a)
				w.u64(pa.b)
				w.bool(ia)
				w.u64(pb.a)
				w.u64(pb.b)
				w.bool(ib)
			case kLatch:
				l := c.latches[nd.a]
				w.byte('r')
				w.str(c.regs[l.reg].Name)
				w.u64(uint64(l.bit))
			case kInput:
				port, off := c.inputBitRef(int32(nd.a))
				w.byte('i')
				w.str(c.inputs[port].Name)
				w.u64(uint64(off))
			case kConst:
				w.byte('k')
			}
			ch[f.id] = w.sum()
		}
	}

	// Pass two: canonical-order DFS assigning local ids and hashing the
	// stream. AND operands are visited and emitted smaller-structure-hash
	// first; ties (isomorphic operand subtrees) fall back to ascending
	// local id, which both orders agree on up to isomorphism.
	local := make(map[int32]int32)
	assign := func(id int32) {
		local[id] = int32(len(local))
	}

	visit := func(root int32) {
		if _, ok := local[root]; ok {
			return
		}
		chVisit(root)
		stack = append(stack[:0], frame{id: root})
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := local[f.id]; ok {
				continue
			}
			nd := c.nodes[f.id]
			if nd.kind == kAnd && !f.expanded {
				first, second := nd.a.Node(), nd.b.Node()
				if chLess(ch[second], nd.b.Inverted(), ch[first], nd.a.Inverted()) {
					first, second = second, first
				}
				// LIFO: push the canonical-second child first so the
				// canonical-first child is discovered (and numbered) first.
				stack = append(stack, frame{id: f.id, expanded: true},
					frame{id: second}, frame{id: first})
				continue
			}
			switch nd.kind {
			case kAnd:
				la, lb := local[nd.a.Node()], local[nd.b.Node()]
				ia, ib := nd.a.Inverted(), nd.b.Inverted()
				pa, pb := ch[nd.a.Node()], ch[nd.b.Node()]
				if chLess(pb, ib, pa, ia) || (pa == pb && ia == ib && lb < la) {
					la, lb, ia, ib = lb, la, ib, ia
				}
				assign(f.id)
				str("a")
				u64(uint64(la))
				boolBit(ia)
				u64(uint64(lb))
				boolBit(ib)
			case kLatch:
				l := c.latches[nd.a]
				assign(f.id)
				str("r")
				str(c.regs[l.reg].Name)
				u64(uint64(l.bit))
			case kInput:
				assign(f.id)
				port, off := c.inputBitRef(int32(nd.a))
				str("i")
				str(c.inputs[port].Name)
				u64(uint64(off))
			case kConst:
				assign(f.id)
				str("k")
			}
		}
	}

	u64(uint64(len(support)))
	for _, name := range support {
		ri, ok := c.regIdx[name]
		if !ok {
			// Unknown register: hash its absence so the key stays total and
			// distinct from any real cone.
			str("reg?")
			str(name)
			continue
		}
		r := c.regs[ri]
		str("reg")
		str(r.Name)
		u64(uint64(r.Width))
		u64(r.Init)
		for bit, root := range r.Next {
			visit(root.Node())
			str("root")
			u64(uint64(bit))
			u64(uint64(local[root.Node()]))
			boolBit(root.Inverted())
		}
	}

	return ConeFP{A: h1.Sum64(), B: h2.Sum64()}
}

// inputBitRef resolves a global input-bit index to (port index, bit offset
// within the port). The lookup tables are built lazily once per circuit.
func (c *Circuit) inputBitRef(g int32) (port, off int32) {
	c.inRefOnce.Do(func() {
		c.inBitPort = make([]int32, c.nInBits)
		c.inBitOff = make([]int32, c.nInBits)
		bit := 0
		for pi, p := range c.inputs {
			for o := 0; o < p.Width; o++ {
				c.inBitPort[bit] = int32(pi)
				c.inBitOff[bit] = int32(o)
				bit++
			}
		}
	})
	return c.inBitPort[g], c.inBitOff[g]
}
