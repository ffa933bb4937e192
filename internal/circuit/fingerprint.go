package circuit

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
)

// fpState is embedded in Circuit (see circuit.go); split out here so the
// fingerprint machinery stays in one file.
type fpState struct {
	coneOnce sync.Once
	cones    *coneTable

	inRefOnce sync.Once
	inBitPort []int32 // global input-bit index → input port index
	inBitOff  []int32 // global input-bit index → bit offset within the port
}

// adoptIdentity shares the memoized structural identity of an equal circuit:
// the cone table (memo, node ranks and scratch pool). Only valid when the
// two circuits are structurally identical (same node array, interface,
// registers and wires) — callers must verify that first.
func (c *Circuit) adoptIdentity(src *Circuit) {
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

// coneTable memoizes cone fingerprints per support set, together with the
// per-circuit data every cone traversal reads: each node's structure rank
// and the stream state after the input interface. It is shared between a
// circuit and its pure duplicates (see adoptIdentity): node ids are
// identical across a pure replay, so all of it transfers verbatim.
type coneTable struct {
	mu sync.Mutex
	m  map[string]ConeFP

	structOnce sync.Once
	rank       []uint32 // node id → rank of its structure hash (see structureRanks)
	head       chWriter // stream state after the header and input interface

	scratch sync.Pool // *coneScratch, reused across traversals
}

func (c *Circuit) coneTab() *coneTable {
	c.coneOnce.Do(func() {
		if c.cones == nil {
			c.cones = &coneTable{m: make(map[string]ConeFP)}
		}
	})
	return c.cones
}

// structure returns the circuit's node ranks and stream head, computing
// both on first use.
func (t *coneTable) structure(c *Circuit) ([]uint32, chWriter) {
	t.structOnce.Do(func() {
		t.rank = c.structureRanks()
		t.head = c.coneHead()
	})
	return t.rank, t.head
}

// canonSupport sorts and dedups a support-register list, dropping empty
// names, and joins it into the cone memo key.
func canonSupport(support []string) (key string, names []string) {
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
	return strings.Join(out, "\x00"), out
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
// Results are memoized per support set. A miss costs one walk over the
// cone; the per-node structure hashes it orders operands by are computed
// once per circuit. Safe for concurrent use.
func (c *Circuit) ConeFingerprint(support []string) ConeFP {
	key, names := canonSupport(support)
	t := c.coneTab()
	t.mu.Lock()
	if fp, ok := t.m[key]; ok {
		t.mu.Unlock()
		return fp
	}
	t.mu.Unlock()

	fp := c.computeCone(t, names)

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

// chWriter feeds one byte stream to the FNV-1a (a) and FNV-1 (b) variants
// at once — byte for byte what hash/fnv's New64a and New64 compute.
type chWriter ch128

func newCHWriter() chWriter { return chWriter{a: fnvOffset64, b: fnvOffset64} }

func (w *chWriter) byte(c byte) {
	w.a = (w.a ^ uint64(c)) * fnvPrime64 // FNV-1a
	w.b = w.b*fnvPrime64 ^ uint64(c)     // FNV-1
}

// fnvPrimePow[k] is fnvPrime64^k (mod 2^64).
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// u64 writes v little-endian. A zero byte leaves both FNV xors unchanged,
// so the zero high bytes of a small value collapse into one multiply by a
// power of the prime — the same digest as writing them one by one.
func (w *chWriter) u64(v uint64) {
	n := 0
	for ; v != 0; v >>= 8 {
		w.byte(byte(v))
		n++
	}
	p := fnvPrimePow[8-n]
	w.a *= p
	w.b *= p
}

// bool writes b as one byte (the per-node structure hashes).
func (w *chWriter) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

// boolWord writes b as a u64 (the cone stream).
func (w *chWriter) boolWord(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *chWriter) str(s string) {
	w.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.byte(s[i])
	}
}

func (w *chWriter) sum() ch128 { return ch128(*w) }

// chCmp orders structure hashes.
func chCmp(x, y ch128) int {
	if x.a != y.a {
		return cmp.Compare(x.a, y.a)
	}
	return cmp.Compare(x.b, y.b)
}

// chLess orders (structure hash, inversion) operand pairs canonically.
func chLess(x ch128, xi bool, y ch128, yi bool) bool {
	if c := chCmp(x, y); c != 0 {
		return c < 0
	}
	return !xi && yi
}

// rankLess is chLess over structure ranks: ranks order nodes exactly as
// their hashes do, and equal ranks mean equal hashes.
func rankLess(x uint32, xi bool, y uint32, yi bool) bool {
	if x != y {
		return x < y
	}
	return !xi && yi
}

// structureRanks computes every node's canonical structure hash in one
// pass — node ids are topological, so operands are always hashed first —
// and returns each node's rank among the distinct hashes. A node's hash
// depends only on its own fan-in, so it is the same whichever cone the
// node is walked in. The cone walk only ever compares hashes, so the
// 4-byte rank stands in for the 16-byte hash at no loss.
func (c *Circuit) structureRanks() []uint32 {
	hs := make([]ch128, len(c.nodes))
	for id, nd := range c.nodes {
		w := newCHWriter()
		switch nd.kind {
		case kAnd:
			pa, pb := hs[nd.a.Node()], hs[nd.b.Node()]
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
		hs[id] = w.sum()
	}

	order := make([]int32, len(hs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return chCmp(hs[x], hs[y]) })
	rank := make([]uint32, len(hs))
	var r uint32
	for i, id := range order {
		if i > 0 && hs[id] != hs[order[i-1]] {
			r++
		}
		rank[id] = r
	}
	return rank
}

// coneHead hashes the part of the cone stream every support shares: the
// version tag and the primary-input interface (sorted), which pins the
// environment-encoding determinism across designs sharing a cone.
func (c *Circuit) coneHead() chWriter {
	w := newCHWriter()
	w.str("hhoudini-cone-fp/v1")
	inNames := make([]string, len(c.inputs))
	for i, p := range c.inputs {
		inNames[i] = p.Name
	}
	sort.Strings(inNames)
	w.u64(uint64(len(inNames)))
	for _, nm := range inNames {
		p := c.inputs[c.inIdx[nm]]
		w.str("in")
		w.str(p.Name)
		w.u64(uint64(p.Width))
	}
	return w
}

// coneScratch is one traversal's working memory, pooled on the coneTable.
type coneScratch struct {
	local []int32 // node id → local id + 1; 0 = not yet numbered
	stack []coneFrame
}

type coneFrame struct {
	id       int32
	expanded bool
}

// computeCone hashes the union next-state cone of the (already sorted and
// deduplicated) support registers. Starting from the shared stream head, it
// walks each register's next-state roots depth first, visiting AND operands
// in canonical order — lower structure rank first, so the order does not
// depend on how the builder stored them — assigns dense local ids in
// discovery order, and hashes each node's structure, expressed over local
// ids, exactly once. The stream feeds the two FNV-64 variants of chWriter
// to form the 128-bit fingerprint.
func (c *Circuit) computeCone(t *coneTable, support []string) ConeFP {
	rank, w := t.structure(c)
	s, _ := t.scratch.Get().(*coneScratch)
	if s == nil {
		s = &coneScratch{local: make([]int32, len(c.nodes))}
	}
	local := s.local
	var next int32 // local ids assigned so far

	visit := func(root int32) {
		if local[root] != 0 {
			return
		}
		stack := append(s.stack[:0], coneFrame{id: root})
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if local[f.id] != 0 {
				continue
			}
			nd := c.nodes[f.id]
			if nd.kind == kAnd && !f.expanded {
				first, second := nd.a.Node(), nd.b.Node()
				if rankLess(rank[second], nd.b.Inverted(), rank[first], nd.a.Inverted()) {
					first, second = second, first
				}
				// LIFO: push the canonical-second child first so the
				// canonical-first child is discovered (and numbered) first.
				stack = append(stack, coneFrame{id: f.id, expanded: true},
					coneFrame{id: second}, coneFrame{id: first})
				continue
			}
			next++
			local[f.id] = next
			switch nd.kind {
			case kAnd:
				la, lb := local[nd.a.Node()]-1, local[nd.b.Node()]-1
				ia, ib := nd.a.Inverted(), nd.b.Inverted()
				ra, rb := rank[nd.a.Node()], rank[nd.b.Node()]
				// Ties (isomorphic operand subtrees) fall back to ascending
				// local id, which both orders agree on up to isomorphism.
				if rankLess(rb, ib, ra, ia) || (ra == rb && ia == ib && lb < la) {
					la, lb, ia, ib = lb, la, ib, ia
				}
				w.str("a")
				w.u64(uint64(la))
				w.boolWord(ia)
				w.u64(uint64(lb))
				w.boolWord(ib)
			case kLatch:
				l := c.latches[nd.a]
				w.str("r")
				w.str(c.regs[l.reg].Name)
				w.u64(uint64(l.bit))
			case kInput:
				port, off := c.inputBitRef(int32(nd.a))
				w.str("i")
				w.str(c.inputs[port].Name)
				w.u64(uint64(off))
			case kConst:
				w.str("k")
			}
		}
		s.stack = stack
	}

	w.u64(uint64(len(support)))
	for _, name := range support {
		ri, ok := c.regIdx[name]
		if !ok {
			// Unknown register: hash its absence so the key stays total and
			// distinct from any real cone.
			w.str("reg?")
			w.str(name)
			continue
		}
		r := c.regs[ri]
		w.str("reg")
		w.str(r.Name)
		w.u64(uint64(r.Width))
		w.u64(r.Init)
		for bit, root := range r.Next {
			visit(root.Node())
			w.str("root")
			w.u64(uint64(bit))
			w.u64(uint64(local[root.Node()] - 1))
			w.boolWord(root.Inverted())
		}
	}

	clear(local)
	t.scratch.Put(s)
	return ConeFP{A: w.a, B: w.b}
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
