package hhoudini

import (
	"fmt"
	"testing"
	"time"

	"hhoudini/internal/circuit"
	"hhoudini/internal/sat"
)

// regEq is a minimal test predicate: register == constant.
type regEq struct {
	reg  string
	val  uint64
	tier int
}

func (p regEq) ID() string     { return fmt.Sprintf("%s==%d", p.reg, p.val) }
func (p regEq) Vars() []string { return []string{p.reg} }
func (p regEq) String() string { return p.ID() }
func (p regEq) Tier() int      { return p.tier }

func (p regEq) Encode(enc *circuit.Encoder, next bool) (sat.Lit, error) {
	var lits []sat.Lit
	var err error
	if next {
		lits, err = enc.RegNextLits(p.reg)
	} else {
		lits, err = enc.RegLits(p.reg)
	}
	if err != nil {
		return 0, err
	}
	return enc.EqConstLits(lits, p.val), nil
}

func (p regEq) Eval(c *circuit.Circuit, s circuit.Snapshot) (bool, error) {
	i := c.RegIndex(p.reg)
	if i < 0 {
		return false, fmt.Errorf("unknown reg %q", p.reg)
	}
	return s[i] == p.val, nil
}

// tableMiner serves candidate predicates per register from a fixed table.
type tableMiner struct {
	byReg map[string][]Pred
}

func (m tableMiner) Mine(target Pred, slice []string) ([]Pred, error) {
	var out []Pred
	for _, r := range slice {
		out = append(out, m.byReg[r]...)
	}
	return out, nil
}

func minerOf(preds ...Pred) tableMiner {
	m := tableMiner{byReg: make(map[string][]Pred)}
	for _, p := range preds {
		r := p.Vars()[0]
		m.byReg[r] = append(m.byReg[r], p)
	}
	return m
}

// testOptions is the in-package tests' base configuration: minimal cores
// and a private cache, so no learner is answered from another's memos.
func testOptions(workers int) Options {
	return Options{Workers: workers, MinimizeCores: true, Cache: NewVerifyCache()}
}

func ids(inv *Invariant) map[string]bool {
	out := map[string]bool{}
	for _, p := range inv.Preds {
		out[p.ID()] = true
	}
	return out
}

// andGateSystem is the paper's introduction example: output A of an AND
// gate over state elements B and C, with B and C fed by further state D, E.
func andGateSystem(t *testing.T) *System {
	t.Helper()
	b := circuit.NewBuilder()
	A := b.Register("A", 1, 1)
	B := b.Register("B", 1, 1)
	C := b.Register("C", 1, 1)
	D := b.Register("D", 1, 1)
	E := b.Register("E", 1, 1)
	_ = A
	b.SetNext("A", circuit.Word{b.And2(B[0], C[0])})
	b.SetNext("B", B)
	b.SetNext("C", circuit.Word{b.And2(D[0], E[0])})
	b.SetNext("D", D)
	b.SetNext("E", E)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &System{Circuit: c}
}

func TestLearnAndGateExample(t *testing.T) {
	sys := andGateSystem(t)
	universe := []Pred{
		regEq{reg: "A", val: 1}, regEq{reg: "B", val: 1}, regEq{reg: "C", val: 1},
		regEq{reg: "D", val: 1}, regEq{reg: "E", val: 1},
	}
	target := regEq{reg: "A", val: 1}
	for _, workers := range []int{1, 4} {
		l := NewLearner(sys, minerOf(universe...), testOptions(workers))
		inv, err := l.Learn([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}
		if inv == nil {
			t.Fatalf("workers=%d: expected an invariant", workers)
		}
		got := ids(inv)
		for _, want := range []string{"A==1", "B==1", "C==1", "D==1", "E==1"} {
			if !got[want] {
				t.Fatalf("workers=%d: invariant %v missing %s", workers, got, want)
			}
		}
		if err := Audit(sys, inv); err != nil {
			t.Fatalf("workers=%d: audit: %v", workers, err)
		}
		if l.Stats().Tasks == 0 || l.Stats().Queries == 0 {
			t.Fatal("stats not recorded")
		}
	}
}

func TestLearnPropertyFailsAtInit(t *testing.T) {
	sys := andGateSystem(t)
	l := NewLearner(sys, minerOf(), DefaultOptions())
	inv, err := l.Learn([]Pred{regEq{reg: "A", val: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if inv != nil {
		t.Fatal("property violated at init must yield None")
	}
}

// TestLearnNoInvariant: the target depends on an unconstrained input, so
// no invariant exists in the language.
func TestLearnNoInvariant(t *testing.T) {
	b := circuit.NewBuilder()
	in := b.Input("in", 1)
	b.Register("R", 1, 1)
	b.SetNext("R", in)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := &System{Circuit: c}
	target := regEq{reg: "R", val: 1}
	l := NewLearner(sys, minerOf(target), DefaultOptions())
	inv, err := l.Learn([]Pred{target})
	if err != nil {
		t.Fatal(err)
	}
	if inv != nil {
		t.Fatal("expected None")
	}
}

// TestLearnWithInputConstraint: same circuit, but the environment pins the
// input, making the target a base case with an empty abduct.
func TestLearnWithInputConstraint(t *testing.T) {
	b := circuit.NewBuilder()
	in := b.Input("in", 1)
	b.Register("R", 1, 1)
	b.SetNext("R", in)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := &System{
		Circuit: c,
		Constrain: func(enc *circuit.Encoder) error {
			lits, err := enc.InputLits("in")
			if err != nil {
				return err
			}
			enc.AssertLit(lits[0])
			return nil
		},
	}
	target := regEq{reg: "R", val: 1}
	l := NewLearner(sys, minerOf(target), DefaultOptions())
	inv, err := l.Learn([]Pred{target})
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil {
		t.Fatal("expected an invariant under the input constraint")
	}
	if inv.Size() != 1 {
		t.Fatalf("invariant %v should be just the target", ids(inv))
	}
	if err := Audit(sys, inv); err != nil {
		t.Fatal(err)
	}
}

// TestLearnCycle: two registers latch each other (§3.2.2).
func TestLearnCycle(t *testing.T) {
	b := circuit.NewBuilder()
	r1 := b.Register("R1", 1, 1)
	r2 := b.Register("R2", 1, 1)
	b.SetNext("R1", r2)
	b.SetNext("R2", r1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := &System{Circuit: c}
	p1 := regEq{reg: "R1", val: 1}
	p2 := regEq{reg: "R2", val: 1}
	for _, workers := range []int{1, 4} {
		l := NewLearner(sys, minerOf(p1, p2), testOptions(workers))
		inv, err := l.Learn([]Pred{p1})
		if err != nil {
			t.Fatal(err)
		}
		if inv == nil || !inv.Contains("R1==1") || !inv.Contains("R2==1") {
			t.Fatalf("workers=%d: bad invariant", workers)
		}
		if err := Audit(sys, inv); err != nil {
			t.Fatal(err)
		}
	}
}

// backtrackSystem: T' = (A∧B) ∨ (B∧C); A' = X; X' = input; B,C stable.
// The {A,B} solution dies because X==1 has no abduct; the learner must
// backtrack and find {B,C} (the Figure 1 scenario).
func backtrackSystem(t *testing.T) (*System, []Pred, Pred) {
	t.Helper()
	b := circuit.NewBuilder()
	in := b.Input("in", 1)
	T := b.Register("T", 1, 1)
	A := b.Register("A", 1, 1)
	B := b.Register("B", 1, 1)
	C := b.Register("C", 1, 1)
	X := b.Register("X", 1, 1)
	_ = T
	b.SetNext("T", circuit.Word{b.Or2(b.And2(A[0], B[0]), b.And2(B[0], C[0]))})
	b.SetNext("A", X)
	b.SetNext("B", B)
	b.SetNext("C", C)
	b.SetNext("X", in)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := &System{Circuit: c}
	universe := []Pred{
		regEq{reg: "T", val: 1}, regEq{reg: "A", val: 1}, regEq{reg: "B", val: 1},
		regEq{reg: "C", val: 1}, regEq{reg: "X", val: 1},
	}
	return sys, universe, regEq{reg: "T", val: 1}
}

func TestLearnBacktracking(t *testing.T) {
	sys, universe, target := backtrackSystem(t)
	for _, workers := range []int{1, 4} {
		l := NewLearner(sys, minerOf(universe...), testOptions(workers))
		inv, err := l.Learn([]Pred{target})
		if err != nil {
			t.Fatal(err)
		}
		if inv == nil {
			t.Fatalf("workers=%d: expected invariant via the {B,C} solution", workers)
		}
		got := ids(inv)
		if !got["B==1"] || !got["C==1"] {
			t.Fatalf("workers=%d: invariant %v must contain B==1 and C==1", workers, got)
		}
		if got["X==1"] {
			t.Fatalf("workers=%d: X==1 is not inductive and must be excluded", workers)
		}
		if err := Audit(sys, inv); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLearnRecursiveMatchesWorklist(t *testing.T) {
	build := []func(t *testing.T) (*System, []Pred, []Pred){
		func(t *testing.T) (*System, []Pred, []Pred) {
			sys := andGateSystem(t)
			universe := []Pred{
				regEq{reg: "A", val: 1}, regEq{reg: "B", val: 1}, regEq{reg: "C", val: 1},
				regEq{reg: "D", val: 1}, regEq{reg: "E", val: 1},
			}
			return sys, universe, []Pred{regEq{reg: "A", val: 1}}
		},
		func(t *testing.T) (*System, []Pred, []Pred) {
			sys, universe, target := backtrackSystem(t)
			return sys, universe, []Pred{target}
		},
	}
	for i, mk := range build {
		sys, universe, targets := mk(t)
		lw := NewLearner(sys, minerOf(universe...), DefaultOptions())
		invW, err := lw.Learn(targets)
		if err != nil {
			t.Fatal(err)
		}
		lr := NewLearner(sys, minerOf(universe...), DefaultOptions())
		invR, err := lr.LearnRecursive(targets)
		if err != nil {
			t.Fatal(err)
		}
		if (invW == nil) != (invR == nil) {
			t.Fatalf("case %d: worklist and recursive disagree on existence", i)
		}
		if invW != nil {
			if err := Audit(sys, invR); err != nil {
				t.Fatalf("case %d: recursive invariant fails audit: %v", i, err)
			}
		}
	}
}

func TestLearnStagedMining(t *testing.T) {
	sys := andGateSystem(t)
	universe := []Pred{
		regEq{reg: "A", val: 1}, regEq{reg: "B", val: 1, tier: 1}, regEq{reg: "C", val: 1},
		regEq{reg: "D", val: 1, tier: 2}, regEq{reg: "E", val: 1},
	}
	o := testOptions(1)
	o.StagedMining = true
	l := NewLearner(sys, minerOf(universe...), o)
	inv, err := l.Learn([]Pred{regEq{reg: "A", val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil {
		t.Fatal("staged mining should still find the invariant")
	}
	if err := Audit(sys, inv); err != nil {
		t.Fatal(err)
	}
}

func TestAuditRejectsNonInductive(t *testing.T) {
	// R' = ¬R: R==1 holds initially but is not inductive.
	b := circuit.NewBuilder()
	r := b.Register("R", 1, 1)
	b.SetNext("R", circuit.Word{r[0].Not()})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := &System{Circuit: c}
	p := regEq{reg: "R", val: 1}
	inv := &Invariant{Preds: []Pred{p}, Targets: []Pred{p}}
	if err := Audit(sys, inv); err == nil {
		t.Fatal("audit must reject a non-inductive invariant")
	}
	// And Learn must return None for it.
	l := NewLearner(sys, minerOf(p), DefaultOptions())
	got, err := l.Learn([]Pred{p})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("expected None")
	}
}

func TestAuditRejectsBadInitiation(t *testing.T) {
	sys := andGateSystem(t)
	p := regEq{reg: "A", val: 0}
	inv := &Invariant{Preds: []Pred{p}, Targets: []Pred{p}}
	if err := Audit(sys, inv); err == nil {
		t.Fatal("audit must reject failing initiation")
	}
}

func TestCheckExamples(t *testing.T) {
	sys := andGateSystem(t)
	p := regEq{reg: "A", val: 1}
	inv := &Invariant{Preds: []Pred{p}, Targets: []Pred{p}}
	good := circuit.Snapshot{1, 1, 1, 1, 1}
	bad := circuit.Snapshot{0, 1, 1, 1, 1}
	if err := CheckExamples(sys, inv, []circuit.Snapshot{good}); err != nil {
		t.Fatal(err)
	}
	if err := CheckExamples(sys, inv, []circuit.Snapshot{good, bad}); err == nil {
		t.Fatal("expected rejection")
	}
}

func TestStatsPercentiles(t *testing.T) {
	s := &Stats{}
	if s.MedianQueryTime() != 0 {
		t.Fatal("empty stats should report zero")
	}
	for i := 1; i <= 100; i++ {
		s.recordQuery(time.Duration(i) * time.Millisecond)
	}
	med := s.MedianQueryTime()
	if med < 45*time.Millisecond || med > 55*time.Millisecond {
		t.Fatalf("median = %v", med)
	}
	p99 := s.QueryTimePercentile(0.99)
	if p99 < 95*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	if s.TotalQueryTime() != 5050*time.Millisecond {
		t.Fatalf("total = %v", s.TotalQueryTime())
	}
}

// TestLearnMultiTargetSharesWork: learning two targets that share a cone
// must memoize the shared predicates (tasks < 2x single-target tasks).
func TestLearnMultiTargetSharesWork(t *testing.T) {
	b := circuit.NewBuilder()
	P1 := b.Register("P1", 1, 1)
	P2 := b.Register("P2", 1, 1)
	S := b.Register("S", 1, 1)
	_, _ = P1, P2
	b.SetNext("P1", S)
	b.SetNext("P2", S)
	b.SetNext("S", S)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := &System{Circuit: c}
	universe := []Pred{
		regEq{reg: "P1", val: 1}, regEq{reg: "P2", val: 1}, regEq{reg: "S", val: 1},
	}
	l := NewLearner(sys, minerOf(universe...), DefaultOptions())
	inv, err := l.Learn([]Pred{regEq{reg: "P1", val: 1}, regEq{reg: "P2", val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil || inv.Size() != 3 {
		t.Fatalf("bad invariant: %+v", inv)
	}
	if l.Stats().Tasks != 3 {
		t.Fatalf("tasks = %d, want 3 (S analyzed once)", l.Stats().Tasks)
	}
	if err := Audit(sys, inv); err != nil {
		t.Fatal(err)
	}
}
