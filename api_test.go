package hhoudini_test

import (
	"bytes"
	"strings"
	"testing"

	hh "hhoudini"
)

// TestPublicAPISurface exercises the facade end to end the way an external
// user would: build a circuit, simulate it, miter it, run a SAT query,
// round-trip btor2, and drive a full VeloCT verification.
func TestPublicAPISurface(t *testing.T) {
	// Circuit construction and simulation.
	b := hh.NewCircuitBuilder()
	in := b.Input("in", 8)
	acc := b.Register("acc", 8, 0)
	b.SetNext("acc", b.Add(acc, in))
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := hh.NewSim(circ)
	sim.Step(hh.Inputs{"in": 3})
	sim.Step(hh.Inputs{"in": 4})
	if v, _ := sim.PeekReg("acc"); v != 7 {
		t.Fatalf("acc = %d", v)
	}
	if hh.InitSnapshot(circ)[0] != 0 {
		t.Fatal("init snapshot")
	}

	// SAT + encoder.
	solver := hh.NewSATSolver()
	enc := hh.NewEncoder(circ, solver)
	lits, err := enc.RegLits("acc")
	if err != nil {
		t.Fatal(err)
	}
	solver.AddClause(lits[0])
	if st := solver.Solve(); st != hh.SATSat {
		t.Fatalf("got %v", st)
	}

	// Miter.
	m, err := hh.BuildMiter(circ)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Circuit.Reg(hh.MiterLeft("acc")); !ok {
		t.Fatal("miter left copy missing")
	}
	if _, ok := m.Circuit.Reg(hh.MiterRight("acc")); !ok {
		t.Fatal("miter right copy missing")
	}

	// btor2 round trip.
	var buf bytes.Buffer
	if err := hh.WriteBTOR2(&buf, circ, nil, nil); err != nil {
		t.Fatal(err)
	}
	d, err := hh.ParseBTOR2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Circuit.NumStateBits() != circ.NumStateBits() {
		t.Fatal("btor2 round trip changed state bits")
	}

	// ISA.
	op, ok := hh.ParseISAOp("add")
	if !ok || op.String() != "add" {
		t.Fatal("ParseISAOp")
	}
	if len(hh.AllISAOps()) < 40 {
		t.Fatal("AllISAOps too small")
	}
}

func TestPublicAPIVeloCTEndToEnd(t *testing.T) {
	tgt, err := hh.NewExecStage(hh.ExecStageConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := hh.NewAnalysis(tgt, hh.DefaultAnalysisOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify([]string{"add"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant == nil {
		t.Fatalf("verify failed: %s", res.Reason)
	}
	if err := a.Audit(res); err != nil {
		t.Fatal(err)
	}
	syn, err := a.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(syn.Safe, ",") != "add" {
		t.Fatalf("safe = %v", syn.Safe)
	}
}

func TestPublicAPIDesignConstructors(t *testing.T) {
	if len(hh.OoOVariants()) != 4 {
		t.Fatal("expected 4 OoO variants")
	}
	inorder, err := hh.NewInOrder()
	if err != nil {
		t.Fatal(err)
	}
	if inorder.Circuit.NumStateBits() == 0 {
		t.Fatal("empty in-order circuit")
	}
	small, err := hh.NewOoO(hh.SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	mega, err := hh.NewOoO(hh.MegaOoO)
	if err != nil {
		t.Fatal(err)
	}
	if small.Circuit.NumStateBits() >= mega.Circuit.NumStateBits() {
		t.Fatal("variant sizes not increasing")
	}
}

// TestPublicAPIModelChecking exercises the BMC/k-induction/PDR and VCD
// exports through the facade.
func TestPublicAPIModelChecking(t *testing.T) {
	b := hh.NewCircuitBuilder()
	cnt := b.Register("cnt", 4, 0)
	wrap := b.EqConst(cnt, 9)
	b.SetNext("cnt", b.MuxW(wrap, b.Const(0, 4), b.Inc(cnt)))
	// cnt==12 is unreachable but not 1-inductive (11 steps to 12);
	// cnt==3 is reachable at depth 3.
	b.Name("bad6", hh.Word{b.EqConst(cnt, 12)})
	b.Name("bad3", hh.Word{b.EqConst(cnt, 3)})
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// bad3 is reachable at depth 3.
	tr, err := hh.BMC(circ, "bad3", 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || tr.Len() != 3 {
		t.Fatalf("cex = %+v", tr)
	}
	if v, err := hh.ReplayTrace(circ, tr, "bad3"); err != nil || v != 1 {
		t.Fatalf("replay: v=%d err=%v", v, err)
	}

	// bad6 is unreachable; PDR proves it, plain k-induction at k=1 cannot.
	res, err := hh.PDR(circ, "bad6", 32)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatalf("PDR should prove bad6 unreachable: %+v", res)
	}
	proved, cex, err := hh.KInduction(circ, "bad6", 1)
	if err != nil {
		t.Fatal(err)
	}
	if proved || cex != nil {
		t.Fatal("k=1 induction should be inconclusive here")
	}

	// VCD recording.
	sim := hh.NewSim(circ)
	var vcd bytes.Buffer
	rec, err := hh.NewVCDRecorder(&vcd, sim, "top")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sim.Step(nil)
		if err := rec.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vcd.String(), "$enddefinitions") {
		t.Fatal("VCD header missing")
	}
}

// TestPublicAPICertificate drives the certificate workflow end to end.
func TestPublicAPICertificate(t *testing.T) {
	tgt, err := hh.NewExecStage(hh.ExecStageConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := hh.NewAnalysis(tgt, hh.DefaultAnalysisOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Verify([]string{"add"})
	if err != nil || res.Invariant == nil {
		t.Fatalf("verify: %v / %+v", err, res)
	}
	var buf bytes.Buffer
	if err := a.ExportCertificate(&buf, res); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCertificate(res); err != nil {
		t.Fatal(err)
	}
	d, err := hh.ParseBTOR2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bads) != 1 || len(d.Constraints) != 1 {
		t.Fatalf("certificate shape: bads=%v constraints=%v", d.Bads, d.Constraints)
	}
}

// TestPublicAPIBaselines runs Houdini/Sorcar through the facade on a tiny
// shared universe.
func TestPublicAPIBaselines(t *testing.T) {
	tgt, err := hh.NewExecStage(hh.ExecStageConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := hh.NewAnalysis(tgt, hh.DefaultAnalysisOptions())
	if err != nil {
		t.Fatal(err)
	}
	miner, _, err := a.BuildMiner([]string{"add"})
	if err != nil {
		t.Fatal(err)
	}
	universe, err := miner.Universe()
	if err != nil {
		t.Fatal(err)
	}
	sys := a.System([]string{"add"})
	targets := a.Targets()
	invH, err := hh.Houdini(sys, universe, targets, hh.BaselineOptions{}, &hh.BaselineStats{})
	if err != nil || invH == nil {
		t.Fatalf("Houdini: %v / %v", err, invH)
	}
	invS, err := hh.Sorcar(sys, universe, targets, hh.BaselineOptions{}, &hh.BaselineStats{})
	if err != nil || invS == nil {
		t.Fatalf("Sorcar: %v / %v", err, invS)
	}
	if err := hh.Audit(sys, invH); err != nil {
		t.Fatal(err)
	}
	if err := hh.Audit(sys, invS); err != nil {
		t.Fatal(err)
	}
}
