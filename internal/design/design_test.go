package design

import (
	"fmt"
	"math/rand"
	"testing"

	"hhoudini/internal/circuit"
	"hhoudini/internal/isa"
)

// run feeds a program (one word per cycle, NOP-padded between and after)
// and returns the observable trace and the final simulator.
func run(t *testing.T, tgt *Target, secrets map[string]uint64, words []uint64, pad int) ([]uint64, *circuit.Sim) {
	t.Helper()
	sim := circuit.NewSim(tgt.Circuit)
	for reg, val := range secrets {
		if err := sim.PokeReg(reg, val); err != nil {
			t.Fatal(err)
		}
	}
	var trace []uint64
	step := func(w uint64) {
		if err := sim.Step(circuit.Inputs{tgt.InstrPort: w}); err != nil {
			t.Fatal(err)
		}
		v, err := sim.PeekReg(tgt.Observable[0])
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, v)
	}
	for _, w := range words {
		step(w)
		for i := 0; i < pad; i++ {
			step(tgt.Nop)
		}
	}
	for i := 0; i < pad+4; i++ {
		step(tgt.Nop)
	}
	return trace, sim
}

// firstDiff returns the first index where two traces differ, or -1.
func firstDiff(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

func TestExecStageTiming(t *testing.T) {
	tgt, err := NewExecStage(ExecStageConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	// ADD: valid timing independent of operands.
	t1, _ := run(t, tgt, map[string]uint64{"op1": 5, "op2": 7}, []uint64{ExecAdd}, 12)
	t2, _ := run(t, tgt, map[string]uint64{"op1": 200, "op2": 13}, []uint64{ExecAdd}, 12)
	if d := firstDiff(t1, t2); d >= 0 {
		t.Fatalf("ADD timing depends on operands (first diff at %d)\n%v\n%v", d, t1, t2)
	}
	// MUL: zero-skip makes timing operand-dependent.
	t3, _ := run(t, tgt, map[string]uint64{"op1": 0, "op2": 7}, []uint64{ExecMul}, 12)
	t4, _ := run(t, tgt, map[string]uint64{"op1": 3, "op2": 7}, []uint64{ExecMul}, 12)
	if firstDiff(t3, t4) < 0 {
		t.Fatal("MUL zero-skip timing leak not observable")
	}
}

func TestExecStageMulResult(t *testing.T) {
	tgt, err := NewExecStage(ExecStageConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, sim := run(t, tgt, map[string]uint64{"op1": 6, "op2": 7}, []uint64{ExecMul}, 12)
	res, _ := sim.PeekReg("res_mul")
	if res != 42 {
		t.Fatalf("res_mul = %d, want 42", res)
	}
	_, sim0 := run(t, tgt, map[string]uint64{"op1": 0, "op2": 9}, []uint64{ExecMul}, 12)
	res0, _ := sim0.PeekReg("res_mul")
	if res0 != 0 {
		t.Fatalf("zero-skip res_mul = %d, want 0", res0)
	}
}

func enc(t *testing.T, in isa.Instr) uint64 { t.Helper(); return uint64(in.Encode()) }

func TestInOrderBasicALU(t *testing.T) {
	tgt, err := NewInOrder()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("InOrder: %s", tgt.Circuit)
	// addi x3, x0, 9 ; add x4, x3, x3 → x4 = 18
	prog := []uint64{
		enc(t, isa.I(isa.OpAddi, 3, 0, 9)),
		enc(t, isa.R(isa.OpAdd, 4, 3, 3)),
	}
	_, sim := run(t, tgt, nil, prog, 6)
	if v, _ := sim.PeekReg("rf4"); v != 18 {
		t.Fatalf("rf4 = %d, want 18", v)
	}
	if v, _ := sim.PeekReg("rf3"); v != 9 {
		t.Fatalf("rf3 = %d, want 9", v)
	}
}

func TestInOrderALUOpsSemantics(t *testing.T) {
	tgt, err := NewInOrder()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   isa.Instr
		rf   map[string]uint64
		reg  string
		want uint64
	}{
		{isa.R(isa.OpSub, 4, 1, 2), map[string]uint64{"rf1": 10, "rf2": 3}, "rf4", 7},
		{isa.R(isa.OpXor, 4, 1, 2), map[string]uint64{"rf1": 0xff, "rf2": 0x0f}, "rf4", 0xf0},
		{isa.R(isa.OpAnd, 4, 1, 2), map[string]uint64{"rf1": 0xfc, "rf2": 0x3f}, "rf4", 0x3c},
		{isa.R(isa.OpOr, 4, 1, 2), map[string]uint64{"rf1": 0xc0, "rf2": 0x03}, "rf4", 0xc3},
		{isa.R(isa.OpSll, 4, 1, 2), map[string]uint64{"rf1": 3, "rf2": 4}, "rf4", 48},
		{isa.R(isa.OpSrl, 4, 1, 2), map[string]uint64{"rf1": 48, "rf2": 4}, "rf4", 3},
		{isa.R(isa.OpSlt, 4, 1, 2), map[string]uint64{"rf1": 0xffff, "rf2": 1}, "rf4", 1}, // -1 < 1
		{isa.R(isa.OpSltu, 4, 1, 2), map[string]uint64{"rf1": 0xffff, "rf2": 1}, "rf4", 0},
		{isa.I(isa.OpAndi, 4, 1, 0x0f), map[string]uint64{"rf1": 0x3c}, "rf4", 0x0c},
		{isa.I(isa.OpSlli, 4, 1, 3), map[string]uint64{"rf1": 5}, "rf4", 40},
		{isa.U(isa.OpLui, 4, 0x5000), nil, "rf4", 0x5000},
	}
	for _, c := range cases {
		_, sim := run(t, tgt, c.rf, []uint64{enc(t, c.in)}, 6)
		if v, _ := sim.PeekReg(c.reg); v != c.want {
			t.Errorf("%v: %s = %#x, want %#x", c.in, c.reg, v, c.want)
		}
	}
}

func TestInOrderMulTimingLeak(t *testing.T) {
	tgt, err := NewInOrder()
	if err != nil {
		t.Fatal(err)
	}
	mul := enc(t, isa.R(isa.OpMul, 4, 1, 2))
	tz, simZ := run(t, tgt, map[string]uint64{"rf1": 0, "rf2": 7}, []uint64{mul}, 24)
	tn, simN := run(t, tgt, map[string]uint64{"rf1": 3, "rf2": 7}, []uint64{mul}, 24)
	if firstDiff(tz, tn) < 0 {
		t.Fatal("zero-skip multiplier should leak timing")
	}
	if v, _ := simZ.PeekReg("rf4"); v != 0 {
		t.Fatalf("mul result (zero) = %d", v)
	}
	if v, _ := simN.PeekReg("rf4"); v != 21 {
		t.Fatalf("mul result = %d, want 21", v)
	}
	// Equal operands → identical timing.
	ta, _ := run(t, tgt, map[string]uint64{"rf1": 5, "rf2": 6}, []uint64{mul}, 24)
	tb, _ := run(t, tgt, map[string]uint64{"rf1": 5, "rf2": 6}, []uint64{mul}, 24)
	if firstDiff(ta, tb) >= 0 {
		t.Fatal("identical runs must match")
	}
}

func TestInOrderSafeOpsAreConstantTime(t *testing.T) {
	tgt, err := NewInOrder()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	safe := []string{"add", "sub", "xor", "and", "or", "sll", "srl", "sra",
		"slt", "sltu", "addi", "xori", "lui", "auipc", "slli"}
	for _, mn := range safe {
		word, err := tgt.Encode(mn, rng)
		if err != nil {
			t.Fatal(err)
		}
		s1 := map[string]uint64{}
		s2 := map[string]uint64{}
		for _, r := range tgt.SecretRegs {
			s1[r] = rng.Uint64() & 0xffff
			s2[r] = rng.Uint64() & 0xffff
		}
		t1, _ := run(t, tgt, s1, []uint64{word}, 8)
		t2, _ := run(t, tgt, s2, []uint64{word}, 8)
		if d := firstDiff(t1, t2); d >= 0 {
			t.Errorf("%s: timing depends on secrets (diff at %d)", mn, d)
		}
	}
}

func TestInOrderUnsafeOpsLeak(t *testing.T) {
	tgt, err := NewInOrder()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][2]map[string]uint64{
		"mul":  {{"rf1": 0, "rf2": 5}, {"rf1": 9, "rf2": 5}},
		"div":  {{"rf1": 4, "rf2": 1}, {"rf1": 4, "rf2": 7}},
		"lw":   {{"rf1": 0}, {"rf1": 3}},
		"beq":  {{"rf1": 5, "rf2": 5}, {"rf1": 5, "rf2": 6}},
		"bltu": {{"rf1": 1, "rf2": 9}, {"rf1": 9, "rf2": 1}},
	}
	for mn, secrets := range cases {
		op, _ := isa.ParseOp(mn)
		in := isa.Instr{Op: op, Rd: 4, Rs1: 1, Rs2: 2}
		if op.IsMem() {
			in = isa.I(op, 4, 1, 8)
		}
		word := enc(t, in)
		t1, _ := run(t, tgt, secrets[0], []uint64{word}, 24)
		t2, _ := run(t, tgt, secrets[1], []uint64{word}, 24)
		if firstDiff(t1, t2) < 0 {
			t.Errorf("%s: expected a secret-dependent timing difference", mn)
		}
	}
}

func TestOoOBasicALU(t *testing.T) {
	for _, v := range OoOVariants() {
		tgt, err := NewOoO(v)
		if err != nil {
			t.Fatal(err)
		}
		prog := []uint64{
			enc(t, isa.I(isa.OpAddi, 3, 0, 9)),
			enc(t, isa.R(isa.OpAdd, 4, 3, 3)),
			enc(t, isa.R(isa.OpMul, 5, 3, 4)), // 9*18 = 162
		}
		_, sim := run(t, tgt, nil, prog, 10)
		if val, _ := sim.PeekReg("rf3"); val != 9 {
			t.Fatalf("%s: rf3 = %d, want 9", v.Name, val)
		}
		if val, _ := sim.PeekReg("rf4"); val != 18 {
			t.Fatalf("%s: rf4 = %d, want 18", v.Name, val)
		}
		if val, _ := sim.PeekReg("rf5"); val != 162 {
			t.Fatalf("%s: rf5 = %d, want 162", v.Name, val)
		}
	}
}

func TestOoOSizesIncrease(t *testing.T) {
	prev := 0
	for _, v := range OoOVariants() {
		tgt, err := NewOoO(v)
		if err != nil {
			t.Fatal(err)
		}
		bits := tgt.Circuit.NumStateBits()
		t.Logf("%s: %d state bits, %d nodes", v.Name, bits, tgt.Circuit.NumNodes())
		if bits <= prev {
			t.Fatalf("%s: state bits %d not larger than previous %d", v.Name, bits, prev)
		}
		prev = bits
	}
}

func TestOoOMulConstantTime(t *testing.T) {
	tgt, err := NewOoO(SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	mul := enc(t, isa.R(isa.OpMul, 4, 1, 2))
	tz, _ := run(t, tgt, map[string]uint64{"rf1": 0, "rf2": 7}, []uint64{mul}, 12)
	tn, _ := run(t, tgt, map[string]uint64{"rf1": 3, "rf2": 7}, []uint64{mul}, 12)
	if d := firstDiff(tz, tn); d >= 0 {
		t.Fatalf("pipelined multiplier must be constant time (diff at %d)", d)
	}
}

func TestOoOAuipcQuirkLeaks(t *testing.T) {
	tgt, err := NewOoO(SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	// auipc's rs1 field bits alias imm[19:15]; choose an imm whose rs1
	// alias is register 1, then make rf1 parity differ.
	word := enc(t, isa.U(isa.OpAuipc, 4, 1<<15))
	in, ok := isa.Decode(uint32(word))
	if !ok || in.Op != isa.OpAuipc {
		t.Fatal("bad auipc encoding")
	}
	t1, _ := run(t, tgt, map[string]uint64{"rf1": 2}, []uint64{word}, 12)
	t2, _ := run(t, tgt, map[string]uint64{"rf1": 3}, []uint64{word}, 12)
	if firstDiff(t1, t2) < 0 {
		t.Fatal("auipc quirk should leak the parity of the aliased register")
	}
}

func TestOoODivTimingLeaks(t *testing.T) {
	tgt, err := NewOoO(SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	div := enc(t, isa.R(isa.OpDiv, 4, 1, 2))
	t1, _ := run(t, tgt, map[string]uint64{"rf1": 8, "rf2": 0}, []uint64{div}, 12)
	t2, _ := run(t, tgt, map[string]uint64{"rf1": 8, "rf2": 3}, []uint64{div}, 12)
	if firstDiff(t1, t2) < 0 {
		t.Fatal("divider latency should depend on the divisor")
	}
}

func TestOoOSafeOpsConstantTime(t *testing.T) {
	tgt, err := NewOoO(MediumOoO)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, mn := range []string{"add", "sub", "xor", "sll", "sltu", "addi", "lui", "mul", "mulhu"} {
		word, err := tgt.Encode(mn, rng)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := map[string]uint64{}, map[string]uint64{}
		for _, r := range tgt.SecretRegs {
			s1[r] = rng.Uint64() & 0xffff
			s2[r] = rng.Uint64() & 0xffff
		}
		t1, _ := run(t, tgt, s1, []uint64{word}, 10)
		t2, _ := run(t, tgt, s2, []uint64{word}, 10)
		if d := firstDiff(t1, t2); d >= 0 {
			t.Errorf("%s: timing depends on secrets (diff at %d)", mn, d)
		}
	}
}

// TestOoODirtyPreambleLeavesResidue: after the dirty preamble drains, some
// invalid IQ or ROB entry must still hold an unsafe uop — the situation
// example masking exists to clean up (§5.2.1).
func TestOoODirtyPreambleLeavesResidue(t *testing.T) {
	tgt, err := NewOoO(SmallOoO)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	words := tgt.DirtyPreamble(rng)
	_, sim := run(t, tgt, nil, words, 12)

	unsafeUops := map[uint64]bool{}
	for _, op := range isa.AllOps() {
		if op.IsMem() || op.IsMulDiv() {
			unsafeUops[UopCode(op)] = true
		}
	}
	found := false
	for i := 0; i < SmallOoO.IQ && !found; i++ {
		v, _ := sim.PeekReg(fmtReg("iqv", i))
		uop, _ := sim.PeekReg(fmtReg("iqop", i))
		if v == 0 && unsafeUops[uop] {
			found = true
		}
	}
	for i := 0; i < SmallOoO.ROB && !found; i++ {
		v, _ := sim.PeekReg(fmtReg("robv", i))
		uop, _ := sim.PeekReg(fmtReg("robop", i))
		if v == 0 && unsafeUops[uop] {
			found = true
		}
	}
	if aluop, _ := sim.PeekReg("alu_op"); unsafeUops[aluop] {
		if bv, _ := sim.PeekReg("alu_busy"); bv == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("dirty preamble left no unsafe uop residue; masking ablation would be vacuous")
	}
}

func fmtReg(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }

func TestTargetHelpers(t *testing.T) {
	tgt, err := NewExecStage(ExecStageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !tgt.HasOp("add") || tgt.HasOp("bogus") {
		t.Fatal("HasOp")
	}
	if _, err := tgt.Encode("bogus", rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("Encode(bogus) should fail")
	}
	pats := tgt.SafePatterns([]string{"add"})
	if !isa.Matches(uint32(ExecNop), pats) || !isa.Matches(uint32(ExecAdd), pats) {
		t.Fatal("safe patterns must admit nop and add")
	}
	if isa.Matches(uint32(ExecMul), pats) {
		t.Fatal("safe patterns must exclude mul")
	}
	if _, err := NewExecStage(ExecStageConfig{Width: 1}); err == nil {
		t.Fatal("width 1 should be rejected")
	}
}
