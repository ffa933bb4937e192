package circuit_test

import (
	"sync"
	"testing"

	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	"hhoudini/internal/miter"
)

// product builds the miter product of a design, the circuit whose cones
// the learner keys its memos by.
func product(tb testing.TB, name string) *circuit.Circuit {
	tb.Helper()
	var tgt *design.Target
	var err error
	switch name {
	case "InOrder":
		tgt, err = design.NewInOrder()
	case "SmallOoO":
		tgt, err = design.NewOoO(design.SmallOoO)
	default:
		tb.Fatalf("unknown design %q", name)
	}
	if err != nil {
		tb.Fatal(err)
	}
	p, err := miter.Build(tgt.Circuit)
	if err != nil {
		tb.Fatal(err)
	}
	return p.Circuit
}

// regSupports returns, per register, its one-step support plus itself —
// the support the benchmark's circuit.fingerprint_s probe keys.
func regSupports(tb testing.TB, c *circuit.Circuit) [][]string {
	tb.Helper()
	out := make([][]string, 0, len(c.Regs()))
	for _, r := range c.Regs() {
		sup, err := c.RegSupport(r.Name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, append(append([]string(nil), sup...), r.Name))
	}
	return out
}

// replay is a pure DuplicateInto: the first replay of a product renumbers
// its nodes, a replay of that replay is node-identical to it.
func replay(tb testing.TB, c *circuit.Circuit) *circuit.Circuit {
	tb.Helper()
	b := circuit.NewBuilder()
	if err := circuit.DuplicateInto(b, c, "", nil); err != nil {
		tb.Fatal(err)
	}
	d, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func TestConeFingerprintMatchesOracle(t *testing.T) {
	for _, name := range []string{"InOrder", "SmallOoO"} {
		c := product(t, name)
		sups := append(regSupports(t, c), nil, []string{"no-such-reg", "l::pc"})
		for _, sup := range sups {
			if got, want := c.ConeFingerprint(sup), circuit.ConeOracle(c, sup); got != want {
				t.Fatalf("%s %v: ConeFingerprint %s, oracle %s", name, sup, got.Hex(), want.Hex())
			}
		}
	}
}

// TestConeFingerprintGoldenKeys pins cone keys as the learner embeds them in
// cache keys and proof-store records: a store written by an earlier build
// must keep hitting, so these literals change only together with the
// version tag at the head of the key stream ("hhoudini-cone-fp/v2"). The
// tag is the store format bump: records keyed under an older tag stay
// readable and simply never match.
func TestConeFingerprintGoldenKeys(t *testing.T) {
	golden := []struct{ design, reg, hex string }{
		{"InOrder", "l::pc", "06032623c12510c20a5f1395067436ac"},
		{"InOrder", "r::rf4", "ea4a22abf32def2629264d212dc9ba54"},
		{"SmallOoO", "l::robv5", "fd88055c617f73ba65308a4b5d816f98"},
		{"SmallOoO", "r::jmp_lat", "2be59e8bd07e08518ad71d03f75c37b9"},
	}
	prods := map[string]*circuit.Circuit{}
	for _, g := range golden {
		c := prods[g.design]
		if c == nil {
			c = product(t, g.design)
			prods[g.design] = c
		}
		sup, err := c.RegSupport(g.reg)
		if err != nil {
			t.Fatal(err)
		}
		sup = append(append([]string(nil), sup...), g.reg)
		if got := c.ConeFingerprint(sup).Hex(); got != g.hex {
			t.Errorf("%s %s: cone key %s, want %s", g.design, g.reg, got, g.hex)
		}
	}
}

// TestConcurrentConeFingerprint fingerprints overlapping supports from
// several goroutines at once, half of them on a fresh circuit and half on a
// node-identical duplicate, both with cold cone tables, and checks every
// result against a sequential run on a separate product.
func TestConcurrentConeFingerprint(t *testing.T) {
	ref := product(t, "InOrder")
	sups := regSupports(t, ref)
	for i, n := 0, len(sups); i+1 < n; i++ {
		sups = append(sups, append(append([]string(nil), sups[i]...), sups[i+1]...))
	}
	want := make([]circuit.ConeFP, len(sups))
	for i, sup := range sups {
		want[i] = ref.ConeFingerprint(sup)
	}

	base := replay(t, product(t, "InOrder"))
	dup := replay(t, base)
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sups {
				i := (k + g*len(sups)/workers) % len(sups)
				c := base
				if (g+k)%2 == 1 {
					c = dup
				}
				if got := c.ConeFingerprint(sups[i]); got != want[i] {
					t.Errorf("support %d: concurrent %s, sequential %s", i, got.Hex(), want[i].Hex())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var sinkFP circuit.ConeFP

// BenchmarkConeFingerprint keys every register's support on a SmallOoO
// product with a cold cone table, the way a fresh verification does: one
// op is one structure-hash pass plus one key per register.
func BenchmarkConeFingerprint(b *testing.B) {
	c := product(b, "SmallOoO")
	sups := regSupports(b, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuit.ResetConeTable(c)
		for _, sup := range sups {
			sinkFP = c.ConeFingerprint(sup)
		}
	}
}
