package circuit

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sort"
)

// fnvPair feeds one byte stream to hash/fnv's FNV-1a and FNV-1, the two
// halves of a 128-bit digest.
type fnvPair struct{ a, b hash.Hash64 }

func newFNVPair() fnvPair { return fnvPair{fnv.New64a(), fnv.New64()} }

func (h fnvPair) put(p ...byte) {
	h.a.Write(p)
	h.b.Write(p)
}

func (h fnvPair) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.put(buf[:]...)
}

func (h fnvPair) bool(b bool) {
	if b {
		h.put(1)
	} else {
		h.put(0)
	}
}

func (h fnvPair) str(s string) {
	h.u64(uint64(len(s)))
	h.put([]byte(s)...)
}

func (h fnvPair) sum() ch128 { return ch128{h.a.Sum64(), h.b.Sum64()} }

// coneOracle is the definition of the cone fingerprint that ConeFingerprint
// must equal bit for bit, computed per call with maps and hash/fnv.
//
// A node's tree hash digests its unfolded expression tree: a leaf hashes
// its kind and name ('r' register and bit, 'i' input port and bit, 'k' the
// constant), an AND hashes 'a' and its two operands' (tree hash, inversion)
// pairs, the smaller pair first, so stored operand order does not matter.
// The key streams the version tag and the sorted input interface, then for
// each sorted, deduplicated support register its name, width and reset
// value and, per next-state bit, the root's tree hash and inversion.
func (c *Circuit) coneOracle(support []string) ConeFP {
	_, support = canonSupport(support)

	memo := make(map[int32]ch128)
	var tree func(id int32) ch128
	tree = func(id int32) ch128 {
		if h, ok := memo[id]; ok {
			return h
		}
		h := newFNVPair()
		nd := c.nodes[id]
		switch nd.kind {
		case kAnd:
			pa, pb := tree(nd.a.Node()), tree(nd.b.Node())
			ia, ib := nd.a.Inverted(), nd.b.Inverted()
			if chLess(pb, ib, pa, ia) {
				pa, pb, ia, ib = pb, pa, ib, ia
			}
			h.put('a')
			h.u64(pa.a)
			h.u64(pa.b)
			h.bool(ia)
			h.u64(pb.a)
			h.u64(pb.b)
			h.bool(ib)
		case kLatch:
			l := c.latches[nd.a]
			h.put('r')
			h.str(c.regs[l.reg].Name)
			h.u64(uint64(l.bit))
		case kInput:
			port, off := c.inputBitRef(int32(nd.a))
			h.put('i')
			h.str(c.inputs[port].Name)
			h.u64(uint64(off))
		case kConst:
			h.put('k')
		}
		memo[id] = h.sum()
		return memo[id]
	}

	w := newFNVPair()
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

	w.u64(uint64(len(support)))
	for _, name := range support {
		ri, ok := c.regIdx[name]
		if !ok {
			w.str("reg?")
			w.str(name)
			continue
		}
		r := c.regs[ri]
		w.str("reg")
		w.str(r.Name)
		w.u64(uint64(r.Width))
		w.u64(r.Init)
		for _, root := range r.Next {
			h := tree(root.Node())
			w.u64(h.a)
			w.u64(h.b)
			w.bool(root.Inverted())
		}
	}
	fp := w.sum()
	return ConeFP{A: fp.a, B: fp.b}
}
