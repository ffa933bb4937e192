package circuit

import (
	"sort"
	"strings"
	"sync"
)

// fpState is embedded in Circuit (see circuit.go); split out here so the
// fingerprint machinery stays in one file.
type fpState struct {
	cones coneTable

	inRefOnce sync.Once
	inBitPort []int32 // global input-bit index → input port index
	inBitOff  []int32 // global input-bit index → bit offset within the port
}

// ConeFP is a 128-bit canonical fingerprint of a register fan-in cone. Two
// cones with equal fingerprints have support registers of the same names,
// widths and reset values whose next-state functions unfold, bit for bit,
// to the same expression trees over the same named register and input
// leaves — the same Boolean functions — and their circuits have the same
// input interface, so abduction answers derived from one are sound to
// reuse on the other even when the surrounding designs differ. 128 bits
// because a collision would be unsound, not merely slow.
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
// per-circuit data every key reads: the structure hash of each register's
// next-state roots and the stream state after the input interface.
type coneTable struct {
	mu sync.Mutex
	m  map[string]ConeFP // nil until the first key is stored

	structOnce sync.Once
	roots      [][]ch128 // register index → structure hash of each next-state root
	head       chWriter  // stream state after the header and input interface
}

// structure returns the circuit's root hashes and stream head, computing
// both on first use.
func (t *coneTable) structure(c *Circuit) ([][]ch128, chWriter) {
	t.structOnce.Do(func() {
		t.roots = c.rootHashes()
		t.head = c.coneHead()
	})
	return t.roots, t.head
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
// the register interface (name, width, reset value) and, per bit, the
// structure hash and inversion of its next-state root. A root's structure
// hash digests the root's unfolded expression tree, whose leaves are
// identified by (register, bit) and (port, bit) rather than global node id.
// The key is therefore invariant to global node ids, declaration order,
// and any part of the design outside the cone. The full primary-input
// interface (sorted names and widths) also participates: environment
// assumptions encode over input ports, so cones are only interchangeable
// between designs that agree on the inputs.
//
// Results are memoized per support set. A miss costs one hash per support
// bit; the structure hashes are computed once per circuit. Safe for
// concurrent use.
func (c *Circuit) ConeFingerprint(support []string) ConeFP {
	key, names := canonSupport(support)
	t := &c.cones
	t.mu.Lock()
	fp, ok := t.m[key]
	t.mu.Unlock()
	if ok {
		return fp
	}

	roots, w := t.structure(c)
	w.u64(uint64(len(names)))
	for _, name := range names {
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
		for bit, h := range roots[ri] {
			w.u64(h.a)
			w.u64(h.b)
			w.bool(r.Next[bit].Inverted())
		}
	}
	fp = ConeFP{A: w.a, B: w.b}

	// A concurrent caller may have stored the same key meanwhile; the
	// fingerprint is a pure function of the support, so either write wins.
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]ConeFP)
	}
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

// bool writes b as one byte.
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

// rootHashes computes every node's canonical structure hash in one pass —
// node ids are topological, so operands are always hashed first — and
// keeps those of each register's next-state roots, indexed by register and
// bit. A node's hash depends only on its own fan-in, so it is the same
// whichever cone the node is keyed in.
func (c *Circuit) rootHashes() [][]ch128 {
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

	flat := make([]ch128, len(c.latches))
	roots := make([][]ch128, len(c.regs))
	for ri, r := range c.regs {
		roots[ri], flat = flat[:len(r.Next):len(r.Next)], flat[len(r.Next):]
		for bit, root := range r.Next {
			roots[ri][bit] = hs[root.Node()]
		}
	}
	return roots
}

// coneHead hashes the part of the cone stream every support shares: the
// version tag and the primary-input interface (sorted), which pins the
// environment-encoding determinism across designs sharing a cone.
func (c *Circuit) coneHead() chWriter {
	w := newCHWriter()
	w.str("hhoudini-cone-fp/v2")
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
