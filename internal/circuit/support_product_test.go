package circuit_test

import (
	"slices"
	"sync"
	"testing"

	"hhoudini/internal/circuit"
)

// checkSupport compares register ri's support, as indices and as names,
// with the reference walk; both list the registers in name order.
func checkSupport(tb testing.TB, c *circuit.Circuit, ri int) {
	tb.Helper()
	want := circuit.SupportOracle(c, ri)
	idx := c.Support(ri)
	names := make([]string, len(idx))
	for k, r := range idx {
		names[k] = c.Regs()[r].Name
	}
	if !slices.Equal(names, want) {
		tb.Errorf("register %s: Support %v, oracle %v", c.Regs()[ri].Name, names, want)
	}
	got, err := c.RegSupport(c.Regs()[ri].Name)
	if err != nil {
		tb.Error(err)
		return
	}
	if !slices.Equal(got, want) {
		tb.Errorf("register %s: RegSupport %v, oracle %v", c.Regs()[ri].Name, got, want)
	}
}

func TestRegSupportMatchesOracle(t *testing.T) {
	for _, name := range []string{"InOrder", "SmallOoO"} {
		c := product(t, name)
		for ri := range c.Regs() {
			checkSupport(t, c, ri)
		}
	}

	// A circuit without registers has an empty table.
	empty, err := circuit.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	empty.WarmSupports()
	if _, err := empty.RegSupport("r"); err == nil {
		t.Fatal("RegSupport of an unknown register did not fail")
	}
}

// TestConcurrentRegSupport races the first use of the support table on a
// fresh product: every goroutine starts at a different register, and every
// result is checked against the reference walk.
func TestConcurrentRegSupport(t *testing.T) {
	c := product(t, "SmallOoO")
	n := len(c.Regs())
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				checkSupport(t, c, (k+g*n/workers)%n)
			}
		}(g)
	}
	wg.Wait()
}
