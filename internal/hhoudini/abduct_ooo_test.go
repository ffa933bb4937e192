package hhoudini_test

import (
	"testing"

	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	"hhoudini/internal/hhoudini"
	"hhoudini/internal/sat"
	"hhoudini/internal/veloct"
)

// smallOoOLearner builds the learner a cold SmallOoO verification of S_ooo
// (the ALU and multiply instructions) runs with example seed 1, one worker
// and a private cache: the same system, miner and targets
// veloct.Analysis.Verify hands to hhoudini.
func smallOoOLearner(t *testing.T) (*hhoudini.System, *hhoudini.Learner, []hhoudini.Pred) {
	t.Helper()
	return smallOoOLearnerWith(t, 1)
}

// smallOoOLearnerWith is smallOoOLearner with the given worker count.
func smallOoOLearnerWith(t *testing.T, workers int) (*hhoudini.System, *hhoudini.Learner, []hhoudini.Pred) {
	t.Helper()
	tgt, err := design.NewOoO(design.SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	opts := veloct.DefaultOptions()
	opts.Examples.Seed = 1
	opts.Learner.Cache = hhoudini.NewVerifyCache()
	opts.Learner.Workers = workers
	a, err := veloct.New(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	safe := []string{
		"add", "addi", "sub", "xor", "xori", "and", "andi", "or", "ori",
		"sll", "slli", "srl", "srli", "sra", "srai",
		"lui", "slt", "slti", "sltu", "sltiu",
		"mul", "mulh", "mulhu", "mulhsu",
	}
	miner, _, err := a.BuildMiner(safe)
	if err != nil {
		t.Fatal(err)
	}
	sys := a.System(safe)
	return sys, hhoudini.NewLearner(sys, miner, opts.Learner), a.Targets()
}

// TestAbductsAreUnsatOnSmallOoO is the soundness contract of the abduction
// oracle (§3.2.3), checked outside the learner: every abduct a cold
// SmallOoO verification records is re-checked on a fresh encoder and
// solver, where A ∧ t ∧ ¬t′ must be Unsat.
func TestAbductsAreUnsatOnSmallOoO(t *testing.T) {
	sys, l, targets := smallOoOLearner(t)
	inv, err := l.Learn(targets)
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil {
		t.Fatal("S_ooo must verify on SmallOoO")
	}
	abducts := hhoudini.Abducts(l)
	if q := l.Stats().Snapshot().Queries; q != 86 || len(abducts) != 86 {
		t.Fatalf("%d queries, %d abducts; want 86 of each", q, len(abducts))
	}
	members := 0
	for _, ab := range abducts {
		s, sels := encodeAbduct(t, sys, ab)
		if st := s.Solve(sels...); st != sat.Unsat {
			t.Fatalf("abduct of %s is not an abduct: A ∧ t ∧ ¬t′ is %v", ab.Target, st)
		}
		members += len(sels)
	}
	t.Logf("%d abducts, %d members, each abduct Unsat", len(abducts), members)
}

// encodeAbduct builds A ∧ t ∧ ¬t′ for one abduct on a new solver, under
// the system's environment assumption, with each member of A behind its
// own selector.
func encodeAbduct(t *testing.T, sys *hhoudini.System, ab hhoudini.Abduct) (*sat.Solver, []sat.Lit) {
	t.Helper()
	s := sat.New()
	enc := circuit.NewEncoder(sys.Circuit, s)
	if err := sys.Constrain(enc); err != nil {
		t.Fatal(err)
	}
	cur, err := ab.Target.Encode(enc, false)
	if err != nil {
		t.Fatal(err)
	}
	next, err := ab.Target.Encode(enc, true)
	if err != nil {
		t.Fatal(err)
	}
	enc.AssertLit(cur)
	enc.AssertLit(next.Not())
	sels := make([]sat.Lit, len(ab.Preds))
	for i, p := range ab.Preds {
		lit, err := p.Encode(enc, false)
		if err != nil {
			t.Fatal(err)
		}
		sels[i] = enc.NewSelector()
		enc.AssertLitWhen(sels[i], lit)
	}
	return s, sels
}
