package circuit

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// coneOracle is the reference cone fingerprint that computeCone must equal
// bit for bit: a per-call two-pass traversal over maps, hashed through
// hash/fnv. Pass one computes the order-insensitive structure hash of every
// node in the cone bottom-up; pass two walks the cone again visiting AND
// operands in structure-hash order, assigns dense local ids in discovery
// order, and streams each node's structure over local ids into FNV-1a and
// FNV-1.
func (c *Circuit) coneOracle(support []string) ConeFP {
	_, support = canonSupport(support)
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
	h, g := fnv.New64a(), fnv.New64()
	put := func(b ...byte) {
		h.Write(b)
		g.Write(b)
	}
	put64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		put(b[:]...)
	}
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	putStr := func(s string) {
		put64(uint64(len(s)))
		put([]byte(s)...)
	}
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
			h.Reset()
			g.Reset()
			switch nd.kind {
			case kAnd:
				pa, pb := ch[nd.a.Node()], ch[nd.b.Node()]
				ia, ib := nd.a.Inverted(), nd.b.Inverted()
				if chLess(pb, ib, pa, ia) {
					pa, pb, ia, ib = pb, pa, ib, ia
				}
				put('a')
				put64(pa.a)
				put64(pa.b)
				putBool(ia)
				put64(pb.a)
				put64(pb.b)
				putBool(ib)
			case kLatch:
				l := c.latches[nd.a]
				put('r')
				putStr(c.regs[l.reg].Name)
				put64(uint64(l.bit))
			case kInput:
				port, off := c.inputBitRef(int32(nd.a))
				put('i')
				putStr(c.inputs[port].Name)
				put64(uint64(off))
			case kConst:
				put('k')
			}
			ch[f.id] = ch128{h.Sum64(), g.Sum64()}
		}
	}

	// Pass two: canonical-order DFS assigning local ids and hashing the
	// stream.
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
