package circuit

import (
	"strconv"
	"testing"
)

// buildSpecCircuit deterministically interprets spec as a tiny program
// building nRegs one-bit registers whose next-state functions are random
// expressions over the inputs and register bits. With junk=true the same
// cone is embedded in a larger design: an unrelated register and its logic
// are declared first and the real registers are declared in reverse order,
// so every global node id and declaration index differs while the cone is
// structurally unchanged.
func buildSpecCircuit(spec []byte, junk bool) (c *Circuit, support []string, ok bool) {
	if len(spec) < 6 {
		return nil, nil, false
	}
	nRegs := 1 + int(spec[0])%3
	inW := 1 + int(spec[1])%3
	inits := spec[2]
	body := spec[3:]
	if len(body) < nRegs {
		return nil, nil, false
	}
	opBytes, nextBytes := body[:len(body)-nRegs], body[len(body)-nRegs:]

	b := NewBuilder()
	in := b.Input("in", inW)
	if junk {
		z := b.Register("zzjunk", 3, 6)
		b.SetNext("zzjunk", b.Inc(z))
		b.And2(in[0], z[1]) // stray logic shifting node ids
	}
	names := make([]string, nRegs)
	for i := 0; i < nRegs; i++ {
		names[i] = "r" + strconv.Itoa(i)
	}
	regBits := make([]Word, nRegs)
	if junk {
		for i := nRegs - 1; i >= 0; i-- {
			regBits[i] = b.Register(names[i], 1, uint64(inits>>i)&1)
		}
	} else {
		for i := 0; i < nRegs; i++ {
			regBits[i] = b.Register(names[i], 1, uint64(inits>>i)&1)
		}
	}

	pool := []Signal{False, True}
	pool = append(pool, in...)
	for i := 0; i < nRegs; i++ {
		pool = append(pool, regBits[i][0])
	}
	// Bounded op count: the brute-force tree comparison unfolds the DAG
	// into expression trees, which can grow geometrically with depth.
	for i, n := 0, 0; i+1 < len(opBytes) && n < 12; i, n = i+2, n+1 {
		x := pool[int(opBytes[i+1]&0xf)%len(pool)]
		y := pool[int(opBytes[i+1]>>4)%len(pool)]
		var s Signal
		switch opBytes[i] % 5 {
		case 0:
			s = b.And2(x, y)
		case 1:
			s = b.Or2(x, y)
		case 2:
			s = b.Xor2(x, y)
		case 3:
			s = b.And2(x, y.Not())
		case 4:
			s = b.Mux2(x, y, pool[(int(opBytes[i])/5)%len(pool)])
		}
		pool = append(pool, s)
	}
	for i := 0; i < nRegs; i++ {
		b.SetNext(names[i], Word{pool[int(nextBytes[i])%len(pool)]})
	}
	c, err := b.Build()
	if err != nil {
		return nil, nil, false
	}
	return c, names, true
}

// bruteConeCanon is the brute-force expression-tree reference: it unfolds
// each support register's next-state DAG into a canonical expression string
// (AND operands sorted as strings, not by hash) together with the register
// and input interfaces. Two cones should get equal keys exactly when these
// strings are equal. Returns ok=false when the unfolding exceeds a size cap.
func bruteConeCanon(c *Circuit, support []string) (string, bool) {
	const cap = 1 << 20
	memo := make(map[int32]string)
	sizeOK := true
	var expr func(id int32) string
	expr = func(id int32) string {
		if s, ok := memo[id]; ok {
			return s
		}
		nd := c.nodes[id]
		var s string
		switch nd.kind {
		case kConst:
			s = "0"
		case kLatch:
			l := c.latches[nd.a]
			s = "R(" + c.regs[l.reg].Name + "," + strconv.Itoa(l.bit) + ")"
		case kInput:
			p, off := c.inputBitRef(int32(nd.a))
			s = "I(" + c.inputs[p].Name + "," + strconv.Itoa(int(off)) + ")"
		case kAnd:
			sa, sb := expr(nd.a.Node()), expr(nd.b.Node())
			if nd.a.Inverted() {
				sa = "~" + sa
			}
			if nd.b.Inverted() {
				sb = "~" + sb
			}
			// AND is commutative and the builder's operand order depends on
			// global signal numbering — canonicalize by sorting.
			if sb < sa {
				sa, sb = sb, sa
			}
			s = "(" + sa + "&" + sb + ")"
		}
		if len(s) > cap {
			sizeOK = false
			s = s[:cap]
		}
		memo[id] = s
		return s
	}

	var sb []byte
	for _, p := range c.inputs {
		sb = append(sb, "in "+p.Name+" "+strconv.Itoa(p.Width)+";"...)
	}
	for _, name := range support {
		ri, ok := c.regIdx[name]
		if !ok {
			sb = append(sb, "reg? "+name+";"...)
			continue
		}
		r := c.regs[ri]
		sb = append(sb, "reg "+r.Name+" "+strconv.Itoa(r.Width)+" "+strconv.Itoa(int(r.Init))+"["...)
		for _, root := range r.Next {
			e := expr(root.Node())
			if root.Inverted() {
				e = "~" + e
			}
			sb = append(sb, e...)
			sb = append(sb, ';')
		}
		sb = append(sb, ']')
		if !sizeOK || len(sb) > 4*cap {
			return "", false
		}
	}
	return string(sb), sizeOK
}

// FuzzConeFingerprint checks three properties on random small cones:
// agreement with the map-based definition (coneOracle), embedding
// invariance (the same cone in a larger, reordered design hashes
// equal) and agreement with the brute-force expression-tree reference under
// single-byte spec mutations — a mutation changes the fingerprint exactly
// when it changes the cone's canonical structure (some mutations are
// no-ops after constant folding and structural hashing; the reference
// catches those).
func FuzzConeFingerprint(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 0x21, 2, 0x35, 4, 0x17, 1, 5}, uint8(4), uint8(1))
	f.Add([]byte{0, 2, 0xff, 1, 0x42, 3, 0x66, 0, 0x0f, 9}, uint8(7), uint8(0x80))
	f.Add([]byte{5, 0, 0, 2, 0x99, 2, 0x9a, 4, 0x21, 0, 0x13, 7, 3}, uint8(0), uint8(0xff))
	f.Fuzz(func(t *testing.T, spec []byte, mutPos, mutXor uint8) {
		c1, sup, ok := buildSpecCircuit(spec, false)
		if !ok {
			t.Skip()
		}
		c2, _, ok2 := buildSpecCircuit(spec, true)
		if !ok2 {
			t.Skip()
		}
		for _, c := range []*Circuit{c1, c2} {
			if got, want := c.ConeFingerprint(sup), c.coneOracle(sup); got != want {
				t.Fatalf("cone fingerprint %s differs from the oracle's %s", got.Hex(), want.Hex())
			}
		}
		if c1.ConeFingerprint(sup) != c2.ConeFingerprint(sup) {
			t.Fatalf("cone fingerprint varies with embedding:\n  plain    %s\n  embedded %s",
				c1.ConeFingerprint(sup).Hex(), c2.ConeFingerprint(sup).Hex())
		}
		if len(spec) == 0 || mutXor == 0 {
			return
		}
		m := append([]byte(nil), spec...)
		m[int(mutPos)%len(m)] ^= mutXor
		c3, sup3, ok3 := buildSpecCircuit(m, false)
		if !ok3 || len(sup3) != len(sup) {
			return
		}
		if got, want := c3.ConeFingerprint(sup), c3.coneOracle(sup); got != want {
			t.Fatalf("mutated cone fingerprint %s differs from the oracle's %s", got.Hex(), want.Hex())
		}
		b1, okB1 := bruteConeCanon(c1, sup)
		b3, okB3 := bruteConeCanon(c3, sup)
		if !okB1 || !okB3 {
			return
		}
		fpEq := c1.ConeFingerprint(sup) == c3.ConeFingerprint(sup)
		if fpEq != (b1 == b3) {
			t.Fatalf("fingerprint disagrees with brute-force tree equality: fpEq=%v treeEq=%v\nspec=%x\nmut =%x",
				fpEq, b1 == b3, spec, m)
		}
	})
}
