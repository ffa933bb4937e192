package sat

import (
	"math/rand"
	"testing"
)

func TestVarHeapOrdering(t *testing.T) {
	var h varHeap
	for i := 0; i < 10; i++ {
		h.insert(Var(i), float64(i))
	}
	// Highest activity first.
	for want := Var(9); !h.empty(); want-- {
		if v := h.removeMin(); v != want {
			t.Fatalf("heap order violated: popped %d, want %d", v, want)
		}
	}
}

func TestVarHeapDecreased(t *testing.T) {
	var h varHeap
	for i := 0; i < 5; i++ {
		h.insert(Var(i), 0)
	}
	h.decreased(Var(3), 100)
	if got := h.removeMin(); got != Var(3) {
		t.Fatalf("expected var 3 first, got %d", got)
	}
}

// TestVarHeapMatchesOracle drives varHeap and the pointer-reading oracle
// through the same seeded sequence of inserts, pops, activity bumps and
// rescales, bumping exactly as the solver's varBumpActivity does, and
// demands the same variable from every pop. Bump increments are powers of
// two and the variable pool is small, so most comparisons are between
// equal activities: a heap that broke ties differently would diverge.
func TestVarHeapMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nVars = 64
		var act []float64
		oracle := &oracleHeap{act: &act}
		var h varHeap
		inc := 1.0
		rescales, pops := 0, 0
		for op := 0; op < 60000; op++ {
			v := Var(rng.Intn(nVars))
			for len(act) <= int(v) {
				act = append(act, 0)
			}
			switch r := rng.Intn(100); {
			case r < 35:
				oracle.insert(v)
				h.insert(v, act[v])
			case r < 60:
				if oracle.empty() != h.empty() {
					t.Fatalf("seed %d op %d: empty %v, oracle %v", seed, op, h.empty(), oracle.empty())
				}
				if oracle.empty() {
					continue
				}
				pops++
				if got, want := h.removeMin(), oracle.removeMin(); got != want {
					t.Fatalf("seed %d op %d: popped %d, oracle popped %d", seed, op, got, want)
				}
			case r < 98:
				act[v] += inc
				if act[v] > 1e100 {
					for i := range act {
						act[i] *= 1e-100
					}
					h.rescale(1e-100)
					inc *= 1e-100
					rescales++
				}
				oracle.decreased(v)
				h.decreased(v, act[v])
			default:
				inc *= 2
			}
		}
		for !oracle.empty() {
			if got, want := h.removeMin(), oracle.removeMin(); got != want {
				t.Fatalf("seed %d drain: popped %d, oracle popped %d", seed, got, want)
			}
		}
		if !h.empty() {
			t.Fatalf("seed %d: heap holds %d entries after the oracle drained", seed, len(h.heap))
		}
		if rescales == 0 || pops == 0 {
			t.Fatalf("seed %d: sequence exercised %d rescales and %d pops; want both", seed, rescales, pops)
		}
	}
}
