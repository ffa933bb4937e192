package sat

import (
	"testing"
)

// Propagate-heavy benchmark family (BenchmarkSat*): the chain workload
// isolates the two-watched-literal propagation loop (zero conflicts, tens
// of thousands of implications per Solve), the PHP and random-3SAT
// workloads add conflict analysis, learnt-clause allocation and DB
// reduction on top. The workload definitions live in benchwork.go
// (BenchWorkloads), shared with the repository benchmark's probes
// (bench/probes.go) so both harnesses measure byte-identical instances.

// benchWorkload runs one named BenchWorkloads entry under the benchmark
// harness.
func benchWorkload(b *testing.B, name string) {
	for _, w := range BenchWorkloads() {
		if w.Name != name {
			continue
		}
		op := w.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("unknown workload %q", name)
}

// BenchmarkSatPropagateChains keeps its own harness so it can report the
// props/op metric; the instance is built by the same constructor shape as
// the shared propagate_chains workload (200 chains of length 100).
func BenchmarkSatPropagateChains(b *testing.B) {
	const k, l = 200, 100
	s := New()
	heads := make([]Lit, k)
	for i := 0; i < k; i++ {
		prev := PosLit(s.NewVar())
		heads[i] = prev
		for j := 0; j < l; j++ {
			next := PosLit(s.NewVar())
			s.AddClause(prev.Not(), next)
			prev = next
		}
	}
	if st := s.Solve(heads...); st != Sat {
		b.Fatalf("chain workload: %v, want Sat", st)
	}
	start := s.Stats.Propagations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := s.Solve(heads...); st != Sat {
			b.Fatalf("chain workload: %v, want Sat", st)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(s.Stats.Propagations-start)/float64(b.N), "props/op")
	}
}

func BenchmarkSatPropagateWide(b *testing.B)   { benchWorkload(b, "propagate_wide") }
func BenchmarkSatSolvePHP(b *testing.B)        { benchWorkload(b, "solve_php") }
func BenchmarkSatSolveRandom3SAT(b *testing.B) { benchWorkload(b, "solve_random3sat") }
