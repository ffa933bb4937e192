package circuit

import "testing"

// buildEmbedded builds a fixed two-register cone ("a", "b" over input "in"),
// optionally embedded in a larger design: junk registers and logic declared
// first (shifting every global node id) and the real registers declared in
// the opposite order. The cone itself — structure, widths, resets — is
// identical in both variants.
func buildEmbedded(t *testing.T, junk bool) *Circuit {
	t.Helper()
	b := NewBuilder()
	in := b.Input("in", 4)
	if junk {
		// Unrelated state machine in front of the cone: different global
		// node ids and declaration order for everything that follows.
		z := b.Register("zz", 6, 33)
		b.SetNext("zz", b.Add(z, b.ZeroExt(in[:2], 6)))
		b.Name("zzodd", Word{b.Bit(z, 0)})
	}
	var a, bw Word
	if junk {
		bw = b.Register("b", 4, 0)
		a = b.Register("a", 4, 5)
	} else {
		a = b.Register("a", 4, 5)
		bw = b.Register("b", 4, 0)
	}
	b.SetNext("a", b.Add(a, in))
	b.SetNext("b", b.MuxW(b.Eq(a, bw), a, b.XorW(bw, a)))
	if junk {
		j := b.Register("junk2", 4, 9)
		b.SetNext("junk2", b.AndW(j, a)) // reads the cone; not in the cone
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

// allRegsCone fingerprints the cone of every register of c: the circuit's
// whole transition structure, without its named wires.
func allRegsCone(c *Circuit) ConeFP {
	var names []string
	for _, r := range c.Regs() {
		names = append(names, r.Name)
	}
	return c.ConeFingerprint(names)
}

func TestConeFingerprintInvariantToEmbedding(t *testing.T) {
	plain := buildEmbedded(t, false)
	embedded := buildEmbedded(t, true)
	if allRegsCone(plain) == allRegsCone(embedded) {
		t.Fatal("all-register cone fingerprints should differ (junk state present)")
	}
	sup := []string{"a", "b"}
	if got, want := embedded.ConeFingerprint(sup), plain.ConeFingerprint(sup); got != want {
		t.Fatalf("cone fingerprint not invariant to embedding: %s vs %s", got.Hex(), want.Hex())
	}
	// Support order and duplicates must not matter.
	if plain.ConeFingerprint([]string{"b", "a", "b"}) != plain.ConeFingerprint(sup) {
		t.Fatal("cone fingerprint depends on support order/duplicates")
	}
}

func TestConeFingerprintPerturbations(t *testing.T) {
	base := buildEmbedded(t, false)
	sup := []string{"a", "b"}
	fp := base.ConeFingerprint(sup)

	build := func(mutate func(b *Builder, a, bw, in Word)) *Circuit {
		b := NewBuilder()
		in := b.Input("in", 4)
		a := b.Register("a", 4, 5)
		bw := b.Register("b", 4, 0)
		mutate(b, a, bw, in)
		c, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return c
	}

	oneGate := build(func(b *Builder, a, bw, in Word) {
		b.SetNext("a", b.Add(a, in))
		// Eq → Ne: a single gate's polarity in the select cone.
		b.SetNext("b", b.MuxW(b.Ne(a, bw), a, b.XorW(bw, a)))
	})
	if oneGate.ConeFingerprint(sup) == fp {
		t.Fatal("one-gate perturbation not detected")
	}

	b2 := NewBuilder()
	in := b2.Input("in", 4)
	a := b2.Register("a", 4, 7) // reset 5 → 7
	bw := b2.Register("b", 4, 0)
	b2.SetNext("a", b2.Add(a, in))
	b2.SetNext("b", b2.MuxW(b2.Eq(a, bw), a, b2.XorW(bw, a)))
	oneReset, err := b2.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if oneReset.ConeFingerprint(sup) == fp {
		t.Fatal("one-reset-value perturbation not detected")
	}

	// A changed input interface (environment surface) must miss too, even
	// with an identical cone.
	b3 := NewBuilder()
	in = b3.Input("in", 4)
	b3.Input("extra", 2)
	a = b3.Register("a", 4, 5)
	bw = b3.Register("b", 4, 0)
	b3.SetNext("a", b3.Add(a, in))
	b3.SetNext("b", b3.MuxW(b3.Eq(a, bw), a, b3.XorW(bw, a)))
	extraIn, err := b3.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if extraIn.ConeFingerprint(sup) == fp {
		t.Fatal("changed input interface not detected")
	}
}

// TestDuplicateKeepsFingerprint: a replay through DuplicateInto renumbers
// nodes (registers, then inputs, then gates), and cone fingerprints are
// numbering-invariant, so they survive every replay, prefixed or not, while
// a duplicate mutated after the replay keys differently.
func TestDuplicateKeepsFingerprint(t *testing.T) {
	src := buildEmbedded(t, true)
	sup := []string{"a", "b"}
	src.ConeFingerprint(sup) // warm the memo before duplicating

	replay := func(c *Circuit) *Circuit {
		t.Helper()
		b := NewBuilder()
		if err := DuplicateInto(b, c, "", nil); err != nil {
			t.Fatalf("DuplicateInto: %v", err)
		}
		d, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return d
	}

	// First replay renumbers nodes; recompute must be deterministic and the
	// numbering-invariant cone fingerprint must survive the renumbering.
	dup1, dup2 := replay(src), replay(src)
	if allRegsCone(dup1) != allRegsCone(dup2) {
		t.Fatal("independent pure replays disagree on recomputed fingerprint")
	}
	if dup1.ConeFingerprint(sup) != src.ConeFingerprint(sup) {
		t.Fatal("cone fingerprint not invariant to replay renumbering")
	}

	// A replay of a replay is node-identical to it.
	dup3 := replay(dup1)
	if dup3.ConeFingerprint([]string{"a"}) != dup1.ConeFingerprint([]string{"a"}) {
		t.Fatal("duplicate and source disagree on a cone fingerprint")
	}
	if got, want := allRegsCone(dup3), allRegsCone(dup1); got != want {
		t.Fatalf("normalized replay fingerprint mismatch: %s vs %s", got.Hex(), want.Hex())
	}

	// Mutating the builder after the replay changes the circuit, and with
	// it the fingerprint.
	b2 := NewBuilder()
	if err := DuplicateInto(b2, dup1, "", nil); err != nil {
		t.Fatalf("DuplicateInto: %v", err)
	}
	extra := b2.Register("added", 2, 0)
	b2.SetNext("added", b2.NotW(extra))
	mut, err := b2.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if allRegsCone(mut) == allRegsCone(dup1) {
		t.Fatal("mutated duplicate keys like its source")
	}

	// Prefixed miter-style replays: two independently built products of the
	// same source agree with each other, and their prefixed cones transfer.
	mk := func() *Circuit {
		mb := NewBuilder()
		shared := map[string]Word{"in": mb.Input("in", 4)}
		if err := DuplicateInto(mb, src, "l::", shared); err != nil {
			t.Fatalf("DuplicateInto: %v", err)
		}
		if err := DuplicateInto(mb, src, "r::", shared); err != nil {
			t.Fatalf("DuplicateInto: %v", err)
		}
		c, err := mb.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return c
	}
	m1, m2 := mk(), mk()
	if allRegsCone(m1) != allRegsCone(m2) {
		t.Fatal("identical miters disagree on the all-register cone fingerprint")
	}
	psup := []string{"l::a", "l::b", "r::a", "r::b"}
	if m1.ConeFingerprint(psup) != m2.ConeFingerprint(psup) {
		t.Fatal("identical miters disagree on cone fingerprint")
	}
	if m1.ConeFingerprint(psup) == src.ConeFingerprint(sup) {
		t.Fatal("prefixed cone should not collide with the unprefixed source cone")
	}
}
