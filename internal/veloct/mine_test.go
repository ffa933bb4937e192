package veloct

import (
	"context"
	"slices"
	"sync"
	"testing"

	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	"hhoudini/internal/hhoudini"
	"hhoudini/internal/miter"
)

// minerAnswers lists, as predicate IDs, what Mine returns for each base
// register's product pair (in BaseRegs order), then what Universe returns.
func minerAnswers(m *Miner, prod *miter.Product) ([][]string, error) {
	ids := func(preds []hhoudini.Pred) []string {
		out := make([]string, len(preds))
		for i, p := range preds {
			out[i] = p.ID()
		}
		return out
	}
	var out [][]string
	for _, base := range prod.BaseRegs() {
		preds, err := m.Mine(nil, []string{miter.Left(base), miter.Right(base)})
		if err != nil {
			return nil, err
		}
		out = append(out, ids(preds))
	}
	uni, err := m.Universe()
	return append(out, ids(uni)), err
}

// TestMinerAnswersFixedAtConstruction: a Miner mines every register in
// NewMiner, so overwriting the examples afterwards changes none of its
// answers. The twin, built from a deep copy, gives the expected answers.
func TestMinerAnswersFixedAtConstruction(t *testing.T) {
	a := oooAnalysis(t, design.SmallOoO, DefaultOptions())
	gen, err := newExampleGen(a.Target, a.Product, a.Opts.Examples)
	if err != nil {
		t.Fatal(err)
	}
	examples, err := gen.GenerateCtx(context.Background(), oooSafeSet)
	if err != nil {
		t.Fatal(err)
	}
	twin := make([]circuit.Snapshot, len(examples))
	for i, e := range examples {
		twin[i] = slices.Clone(e)
	}
	pats, rules := a.Target.SafePatterns(oooSafeSet), a.Target.UopRules(oooSafeSet)
	m, err := NewMiner(a.Product, examples, pats, rules)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewMiner(a.Product, twin, pats, rules)
	if err != nil {
		t.Fatal(err)
	}

	// Every register now differs across copies in every example, so a
	// Miner that still read them would mine nothing.
	for _, e := range examples {
		for j := range e {
			e[j] = uint64(j)
		}
	}
	got, err := minerAnswers(m, a.Product)
	if err != nil {
		t.Fatal(err)
	}
	want, err := minerAnswers(ref, a.Product)
	if err != nil {
		t.Fatal(err)
	}
	if len(want[len(want)-1]) == 0 {
		t.Fatal("empty universe: the comparison is vacuous")
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("answer %d after overwriting the examples: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestConcurrentMine: parallel Mine and Universe calls on one Miner give
// the answers a sequential caller gets (and race-free under -race).
func TestConcurrentMine(t *testing.T) {
	a := inOrderAnalysis(t, DefaultOptions())
	m, _, err := a.BuildMiner(inOrderSafeSet)
	if err != nil {
		t.Fatal(err)
	}
	want, err := minerAnswers(m, a.Product)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := minerAnswers(m, a.Product)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Errorf("answer %d: %v, want %v", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
