package design

import (
	"fmt"
	"math/rand"

	"hhoudini/internal/circuit"
	"hhoudini/internal/isa"
)

// OoOVariant selects one of the four "boom-class" size configurations,
// mirroring the paper's SmallBOOM..MegaBOOM sweep.
type OoOVariant struct {
	Name       string
	FetchQueue int // fetch-buffer depth
	IQ         int // issue-queue entries
	ROB        int // reorder-buffer entries
	// DebugCounter adds a free-running cycle counter register that nothing
	// reads — the archetypal "instrumentation-only" RTL edit. It changes
	// the circuit as a whole while leaving every verification target's
	// fan-in cone untouched, so it is the clean demonstrator for
	// cone-level cache transfer (a whole-circuit-keyed cache restarts cold,
	// a cone-keyed one stays fully warm).
	DebugCounter bool
}

// The four evaluated variants (Table 1's design-size axis).
var (
	SmallOoO  = OoOVariant{Name: "SmallOoO", FetchQueue: 2, IQ: 4, ROB: 8}
	MediumOoO = OoOVariant{Name: "MediumOoO", FetchQueue: 3, IQ: 6, ROB: 12}
	LargeOoO  = OoOVariant{Name: "LargeOoO", FetchQueue: 4, IQ: 8, ROB: 16}
	MegaOoO   = OoOVariant{Name: "MegaOoO", FetchQueue: 6, IQ: 12, ROB: 24}
)

// OoOVariants lists the variants smallest-first.
func OoOVariants() []OoOVariant {
	return []OoOVariant{SmallOoO, MediumOoO, LargeOoO, MegaOoO}
}

func log2ceil(n int) int {
	w := 1
	for 1<<uint(w) < n {
		w++
	}
	return w
}

// uop class membership helpers (over the dense uop encoding).
var (
	aluClassOps = []isa.Op{isa.OpAdd, isa.OpSub, isa.OpSll, isa.OpSlt, isa.OpSltu,
		isa.OpXor, isa.OpSrl, isa.OpSra, isa.OpOr, isa.OpAnd,
		isa.OpAddi, isa.OpSlti, isa.OpSltiu, isa.OpXori, isa.OpOri, isa.OpAndi,
		isa.OpSlli, isa.OpSrli, isa.OpSrai, isa.OpLui,
		isa.OpDiv, isa.OpDivu, isa.OpRem, isa.OpRemu} // divider shares the ALU
	mulClassOps = []isa.Op{isa.OpMul, isa.OpMulh, isa.OpMulhsu, isa.OpMulhu}
	memClassOps = []isa.Op{isa.OpLb, isa.OpLh, isa.OpLw, isa.OpLbu, isa.OpLhu,
		isa.OpSb, isa.OpSh, isa.OpSw}
	jmpClassOps = []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge,
		isa.OpBltu, isa.OpBgeu, isa.OpJal, isa.OpJalr, isa.OpAuipc}
	divClassOps = []isa.Op{isa.OpDiv, isa.OpDivu, isa.OpRem, isa.OpRemu}
	brClassOps  = []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu}
)

func uopIs(b *circuit.Builder, uop circuit.Word, ops ...isa.Op) circuit.Signal {
	acc := circuit.False
	for _, op := range ops {
		acc = b.Or2(acc, b.EqConst(uop, UopCode(op)))
	}
	return acc
}

// aluResultFromUop computes the ALU/div result from a uop code and operand
// values (the OoO core has discarded the raw instruction word by FU time).
func aluResultFromUop(b *circuit.Builder, uop circuit.Word, a, c, imm circuit.Word) circuit.Word {
	useImm := uopIs(b, uop, isa.OpAddi, isa.OpSlti, isa.OpSltiu, isa.OpXori,
		isa.OpOri, isa.OpAndi, isa.OpSlli, isa.OpSrli, isa.OpSrai)
	opb := b.MuxW(useImm, imm, c)
	shamt := b.ZeroExt(b.Extract(opb, 3, 0), XLEN)
	res := b.Const(0, XLEN)
	add := func(sel circuit.Signal, val circuit.Word) { res = b.OrW(res, b.MaskW(sel, val)) }
	add(uopIs(b, uop, isa.OpAdd, isa.OpAddi), b.Add(a, opb))
	add(uopIs(b, uop, isa.OpSub), b.Sub(a, opb))
	add(uopIs(b, uop, isa.OpAnd, isa.OpAndi), b.AndW(a, opb))
	add(uopIs(b, uop, isa.OpOr, isa.OpOri), b.OrW(a, opb))
	add(uopIs(b, uop, isa.OpXor, isa.OpXori), b.XorW(a, opb))
	add(uopIs(b, uop, isa.OpSll, isa.OpSlli), b.Shl(a, shamt))
	add(uopIs(b, uop, isa.OpSrl, isa.OpSrli), b.Lshr(a, shamt))
	add(uopIs(b, uop, isa.OpSra, isa.OpSrai), b.Ashr(a, shamt))
	add(uopIs(b, uop, isa.OpSlt, isa.OpSlti), b.ZeroExt(circuit.Word{b.Slt(a, opb)}, XLEN))
	add(uopIs(b, uop, isa.OpSltu, isa.OpSltiu), b.ZeroExt(circuit.Word{b.Ult(a, opb)}, XLEN))
	add(uopIs(b, uop, isa.OpLui), imm)
	add(uopIs(b, uop, divClassOps...), b.XorW(a, c)) // placeholder quotient
	return res
}

func branchTakenFromUop(b *circuit.Builder, uop circuit.Word, a, c circuit.Word) circuit.Signal {
	eq := b.Eq(a, c)
	lt := b.Slt(a, c)
	ltu := b.Ult(a, c)
	taken := circuit.False
	or := func(op isa.Op, cond circuit.Signal) {
		taken = b.Or2(taken, b.And2(b.EqConst(uop, UopCode(op)), cond))
	}
	or(isa.OpBeq, eq)
	or(isa.OpBne, eq.Not())
	or(isa.OpBlt, lt)
	or(isa.OpBge, lt.Not())
	or(isa.OpBltu, ltu)
	or(isa.OpBgeu, ltu.Not())
	return taken
}

// NewOoO builds the "boom-class" out-of-order core:
//
//   - a fetch queue feeding in-order dispatch into an issue queue and a
//     reorder buffer (in-order retire, out-of-order issue via a
//     register-file scoreboard);
//   - a unified ALU that also executes divides with divisor-dependent
//     latency (this is why the ALU-opcode register needs the paper's
//     expert EqConstSet annotation);
//   - a fully pipelined 3-cycle multiplier with constant latency — the
//     reason mul-family instructions are safe on this core (Table 2);
//   - a memory unit with address-dependent latency;
//   - a jump/branch/auipc unit whose auipc path reads the register file
//     through the rs1 field bits (a decode-sharing quirk) and stalls one
//     extra cycle when that — secret — value is odd: auipc is therefore
//     unverifiable, matching the paper's BOOM finding;
//   - issue-queue and ROB entries whose payload fields persist after the
//     valid bit clears, which is what makes example masking (§5.2.1)
//     necessary.
//
// The attacker observes the retirement strobe.
func NewOoO(v OoOVariant) (*Target, error) {
	if v.FetchQueue < 1 || v.IQ < 1 || v.ROB < 2 {
		return nil, fmt.Errorf("design: bad OoO variant %+v", v)
	}
	robW := log2ceil(v.ROB)

	b := circuit.NewBuilder()
	instrIn := b.Input("instr", 32)

	if v.DebugCounter {
		// Declared before any architectural state so it also shifts every
		// global node id — the strongest version of the "unrelated edit"
		// the cone-keyed cache must be invariant to.
		dbg := b.Register("dbg_cycles", 8, 0)
		b.SetNext("dbg_cycles", b.Inc(dbg))
	}

	// Architectural state.
	rf := make([]circuit.Word, NRegs)
	busy := make([]circuit.Word, NRegs)
	for r := 1; r < NRegs; r++ {
		rf[r] = b.Register(fmt.Sprintf("rf%d", r), XLEN, 0)
		busy[r] = b.Register(fmt.Sprintf("busy%d", r), 1, 0)
	}
	rf[0] = b.Const(0, XLEN)
	busy[0] = circuit.Word{circuit.False}
	pc := b.Register("pc", XLEN, 0)

	// Fetch queue.
	fq := make([]circuit.Word, v.FetchQueue)
	fqv := make([]circuit.Word, v.FetchQueue)
	for i := range fq {
		fq[i] = b.Register(fmt.Sprintf("fq%d", i), 32, uint64(isa.NOP()))
		fqv[i] = b.Register(fmt.Sprintf("fqv%d", i), 1, 0)
	}

	// Issue queue.
	type iqEntry struct {
		v, w1, w2           circuit.Word // 1-bit each: valid, waiting-on-rs1/rs2
		op                  circuit.Word // uopW
		rd, rs1, rs2        circuit.Word // regW
		imm, pc             circuit.Word // XLEN
		rob                 circuit.Word // robW
		vN, opN, rdN        string
		rs1N, rs2N, immN    string
		pcN, robN, w1N, w2N string
	}
	iq := make([]iqEntry, v.IQ)
	for i := range iq {
		e := &iq[i]
		e.vN = fmt.Sprintf("iqv%d", i)
		e.opN = fmt.Sprintf("iqop%d", i)
		e.rdN = fmt.Sprintf("iqrd%d", i)
		e.rs1N = fmt.Sprintf("iqrs1%d", i)
		e.rs2N = fmt.Sprintf("iqrs2%d", i)
		e.immN = fmt.Sprintf("iqimm%d", i)
		e.pcN = fmt.Sprintf("iqpc%d", i)
		e.robN = fmt.Sprintf("iqrob%d", i)
		e.w1N = fmt.Sprintf("iqw1_%d", i)
		e.w2N = fmt.Sprintf("iqw2_%d", i)
		e.v = b.Register(e.vN, 1, 0)
		e.op = b.Register(e.opN, uopW, 0)
		e.rd = b.Register(e.rdN, regW, 0)
		e.rs1 = b.Register(e.rs1N, regW, 0)
		e.rs2 = b.Register(e.rs2N, regW, 0)
		e.imm = b.Register(e.immN, XLEN, 0)
		e.pc = b.Register(e.pcN, XLEN, 0)
		e.rob = b.Register(e.robN, robW, 0)
		e.w1 = b.Register(e.w1N, 1, 0)
		e.w2 = b.Register(e.w2N, 1, 0)
	}

	// Reorder buffer.
	robv := make([]circuit.Word, v.ROB)
	robd := make([]circuit.Word, v.ROB)
	robop := make([]circuit.Word, v.ROB)
	for i := 0; i < v.ROB; i++ {
		robv[i] = b.Register(fmt.Sprintf("robv%d", i), 1, 0)
		robd[i] = b.Register(fmt.Sprintf("robd%d", i), 1, 0)
		robop[i] = b.Register(fmt.Sprintf("robop%d", i), uopW, 0)
	}
	head := b.Register("rob_head", robW, 0)
	tail := b.Register("rob_tail", robW, 0)

	// ALU/div unit.
	aluBusy := b.Register("alu_busy", 1, 0)
	aluCnt := b.Register("alu_cnt", 2, 0)
	aluLat := b.Register("alu_lat", 2, 0)
	aluOp := b.Register("alu_op", uopW, 0)
	aluRd := b.Register("alu_rd", regW, 0)
	aluRob := b.Register("alu_rob", robW, 0)
	aluRes := b.Register("alu_res", XLEN, 0)

	// Pipelined multiplier (3 constant-latency stages).
	const mulDepth = 3
	mv := make([]circuit.Word, mulDepth)
	mrd := make([]circuit.Word, mulDepth)
	mrob := make([]circuit.Word, mulDepth)
	mres := make([]circuit.Word, mulDepth)
	for k := 0; k < mulDepth; k++ {
		mv[k] = b.Register(fmt.Sprintf("mulv%d", k), 1, 0)
		mrd[k] = b.Register(fmt.Sprintf("mulrd%d", k), regW, 0)
		mrob[k] = b.Register(fmt.Sprintf("mulrob%d", k), robW, 0)
		mres[k] = b.Register(fmt.Sprintf("mulres%d", k), XLEN, 0)
	}

	// Memory unit.
	memBusy := b.Register("mem_busy", 1, 0)
	memCnt := b.Register("mem_cnt", 2, 0)
	memLat := b.Register("mem_lat", 2, 0)
	memRd := b.Register("mem_rd", regW, 0)
	memRob := b.Register("mem_rob", robW, 0)
	memRes := b.Register("mem_res", XLEN, 0)
	memWen := b.Register("mem_wen", 1, 0)

	// Jump/branch/auipc unit.
	jmpBusy := b.Register("jmp_busy", 1, 0)
	jmpCnt := b.Register("jmp_cnt", 1, 0)
	jmpLat := b.Register("jmp_lat", 1, 0)
	jmpRd := b.Register("jmp_rd", regW, 0)
	jmpRob := b.Register("jmp_rob", robW, 0)
	jmpRes := b.Register("jmp_res", XLEN, 0)
	jmpWen := b.Register("jmp_wen", 1, 0)
	jmpTaken := b.Register("jmp_taken", 1, 0)
	jmpTgt := b.Register("jmp_tgt", XLEN, 0)

	retire := b.Register("retire_valid", 1, 0)
	_ = retire

	// --- Completion strobes --------------------------------------------
	aluDone := b.And2(aluBusy[0], b.Eq(aluCnt, aluLat))
	memDone := b.And2(memBusy[0], b.Eq(memCnt, memLat))
	jmpDone := b.And2(jmpBusy[0], b.Eq(jmpCnt, jmpLat))
	mulDone := mv[mulDepth-1][0]
	flush := b.And2(jmpDone, jmpTaken[0])

	// --- Dispatch -------------------------------------------------------
	dd := decode(b, fq[0])
	iqFreeAny := circuit.False
	for i := range iq {
		iqFreeAny = b.Or2(iqFreeAny, iq[i].v[0].Not())
	}
	robAt := func(regs []circuit.Word, idx circuit.Word) circuit.Signal {
		out := circuit.False
		for i := 0; i < v.ROB; i++ {
			out = b.Or2(out, b.And2(b.EqConst(idx, uint64(i)), regs[i][0]))
		}
		return out
	}
	robFree := robAt(robv, tail).Not()
	// Canonical NOPs (addi with rd == x0) take a fast path: they allocate a
	// ROB entry born "done" and skip the issue queue, so a NOP-padded
	// instruction stream does not congest the backend.
	nopLike := b.And2(b.EqConst(dd.uop, UopCode(isa.OpAddi)), b.IsZero(dd.rd))
	dispatch := b.AndN(fqv[0][0], robFree, flush.Not(),
		b.Or2(nopLike, iqFreeAny))
	dispatchIQ := b.And2(dispatch, nopLike.Not())

	// --- Issue selection -------------------------------------------------
	busyOf := func(idx circuit.Word) circuit.Signal {
		out := circuit.False
		for r := 1; r < NRegs; r++ {
			out = b.Or2(out, b.And2(b.EqConst(idx, uint64(r)), busy[r][0]))
		}
		return out
	}
	ready := make([]circuit.Signal, v.IQ)
	isALUc := make([]circuit.Signal, v.IQ)
	isMULc := make([]circuit.Signal, v.IQ)
	isMEMc := make([]circuit.Signal, v.IQ)
	isJMPc := make([]circuit.Signal, v.IQ)
	for i := range iq {
		e := &iq[i]
		// Sticky wakeup: the waiting bits were captured from the busy
		// scoreboard at dispatch (before the entry's own rd was marked
		// busy, so self-dependent instructions cannot deadlock) and clear
		// once the producer's busy bit drops.
		srcOK := b.And2(e.w1[0].Not(), e.w2[0].Not())
		ready[i] = b.And2(e.v[0], srcOK)
		isALUc[i] = uopIs(b, e.op, aluClassOps...)
		isMULc[i] = uopIs(b, e.op, mulClassOps...)
		isMEMc[i] = uopIs(b, e.op, memClassOps...)
		isJMPc[i] = uopIs(b, e.op, jmpClassOps...)
	}
	grantClass := func(class []circuit.Signal, unitFree circuit.Signal) []circuit.Signal {
		grants := make([]circuit.Signal, v.IQ)
		taken := circuit.False
		for i := 0; i < v.IQ; i++ {
			want := b.And2(ready[i], class[i])
			grants[i] = b.AndN(unitFree, want, taken.Not())
			taken = b.Or2(taken, want)
		}
		return grants
	}
	// The ALU accepts a new op on the same cycle its previous op completes
	// (back-to-back single-cycle throughput).
	aluDoneEarly := aluDone
	aluG := grantClass(isALUc, b.Or2(aluBusy[0].Not(), aluDoneEarly))
	mulG := grantClass(isMULc, circuit.True) // fully pipelined
	memG := grantClass(isMEMc, memBusy[0].Not())
	jmpG := grantClass(isJMPc, jmpBusy[0].Not())

	anyG := func(gs []circuit.Signal) circuit.Signal { return b.OrN(gs...) }
	selField := func(gs []circuit.Signal, field func(*iqEntry) circuit.Word, width int) circuit.Word {
		out := b.Const(0, width)
		for i := range iq {
			out = b.OrW(out, b.MaskW(gs[i], field(&iq[i])))
		}
		return out
	}
	type granted struct {
		fire              circuit.Signal
		uop, rd, rs1, rs2 circuit.Word
		imm, pcw, rob     circuit.Word
		op1, op2          circuit.Word
	}
	sel := func(gs []circuit.Signal) granted {
		g := granted{
			fire: anyG(gs),
			uop:  selField(gs, func(e *iqEntry) circuit.Word { return e.op }, uopW),
			rd:   selField(gs, func(e *iqEntry) circuit.Word { return e.rd }, regW),
			rs1:  selField(gs, func(e *iqEntry) circuit.Word { return e.rs1 }, regW),
			rs2:  selField(gs, func(e *iqEntry) circuit.Word { return e.rs2 }, regW),
			imm:  selField(gs, func(e *iqEntry) circuit.Word { return e.imm }, XLEN),
			pcw:  selField(gs, func(e *iqEntry) circuit.Word { return e.pc }, XLEN),
			rob:  selField(gs, func(e *iqEntry) circuit.Word { return e.rob }, robW),
		}
		g.op1 = regRead(b, rf, g.rs1)
		g.op2 = regRead(b, rf, g.rs2)
		return g
	}
	gALU := sel(aluG)
	gMUL := sel(mulG)
	gMEM := sel(memG)
	gJMP := sel(jmpG)

	// --- ALU/div unit next state ----------------------------------------
	aluIsDiv := uopIs(b, gALU.uop, divClassOps...)
	b.SetNext("alu_busy", circuit.Word{b.Or2(gALU.fire, b.And2(aluBusy[0], aluDone.Not()))})
	b.SetNext("alu_cnt", b.MuxW(gALU.fire, b.Const(0, 2),
		b.MuxW(aluBusy[0], b.Inc(aluCnt), b.Const(0, 2))))
	b.SetNext("alu_lat", b.MuxW(gALU.fire,
		b.MuxW(aluIsDiv, b.Extract(gALU.op2, 1, 0), b.Const(0, 2)), aluLat))
	b.SetNext("alu_op", b.MuxW(gALU.fire, gALU.uop, aluOp))
	b.SetNext("alu_rd", b.MuxW(gALU.fire, gALU.rd, aluRd))
	b.SetNext("alu_rob", b.MuxW(gALU.fire, gALU.rob, aluRob))
	b.SetNext("alu_res", b.MuxW(gALU.fire,
		aluResultFromUop(b, gALU.uop, gALU.op1, gALU.op2, gALU.imm), aluRes))
	aluWen := b.And2(uopIs(b, aluOp, aluClassOps...), b.IsZero(aluRd).Not())

	// --- Multiplier pipe --------------------------------------------------
	b.SetNext("mulv0", circuit.Word{gMUL.fire})
	b.SetNext("mulrd0", b.MuxW(gMUL.fire, gMUL.rd, mrd[0]))
	b.SetNext("mulrob0", b.MuxW(gMUL.fire, gMUL.rob, mrob[0]))
	b.SetNext("mulres0", b.MuxW(gMUL.fire, b.Mul(gMUL.op1, gMUL.op2), mres[0]))
	for k := 1; k < mulDepth; k++ {
		b.SetNext(fmt.Sprintf("mulv%d", k), mv[k-1])
		b.SetNext(fmt.Sprintf("mulrd%d", k), mrd[k-1])
		b.SetNext(fmt.Sprintf("mulrob%d", k), mrob[k-1])
		b.SetNext(fmt.Sprintf("mulres%d", k), mres[k-1])
	}
	mulWen := b.And2(mulDone, b.IsZero(mrd[mulDepth-1]).Not())

	// --- Memory unit -------------------------------------------------------
	memAddr := b.Add(gMEM.op1, gMEM.imm)
	memIsLoad := uopIs(b, gMEM.uop, isa.OpLb, isa.OpLh, isa.OpLw, isa.OpLbu, isa.OpLhu)
	b.SetNext("mem_busy", circuit.Word{b.Or2(gMEM.fire, b.And2(memBusy[0], memDone.Not()))})
	b.SetNext("mem_cnt", b.MuxW(memBusy[0], b.Inc(memCnt), b.Const(0, 2)))
	b.SetNext("mem_lat", b.MuxW(gMEM.fire, b.Extract(memAddr, 1, 0), memLat))
	b.SetNext("mem_rd", b.MuxW(gMEM.fire, gMEM.rd, memRd))
	b.SetNext("mem_rob", b.MuxW(gMEM.fire, gMEM.rob, memRob))
	b.SetNext("mem_res", b.MuxW(gMEM.fire, b.XorW(memAddr, b.Const(0xBEEF, XLEN)), memRes))
	b.SetNext("mem_wen", b.MuxW(gMEM.fire, circuit.Word{memIsLoad}, memWen))
	memWenOK := b.And2(memWen[0], b.IsZero(memRd).Not())

	// --- Jump/branch/auipc unit -------------------------------------------
	jmpIsAuipc := b.EqConst(gJMP.uop, UopCode(isa.OpAuipc))
	jmpIsBr := uopIs(b, gJMP.uop, brClassOps...)
	jmpIsJump := uopIs(b, gJMP.uop, isa.OpJal, isa.OpJalr)
	// The auipc quirk: the unit reads the register file through the rs1
	// field bits (which alias immediate bits for U-type instructions) and
	// takes an extra cycle when the — secret — value read is odd.
	quirkBit := b.Bit(gJMP.op1, 0)
	b.SetNext("jmp_busy", circuit.Word{b.Or2(gJMP.fire, b.And2(jmpBusy[0], jmpDone.Not()))})
	b.SetNext("jmp_cnt", b.MuxW(jmpBusy[0], b.Inc(jmpCnt), b.Const(0, 1)))
	b.SetNext("jmp_lat", b.MuxW(gJMP.fire,
		circuit.Word{b.And2(jmpIsAuipc, quirkBit)}, jmpLat))
	b.SetNext("jmp_rd", b.MuxW(gJMP.fire, gJMP.rd, jmpRd))
	b.SetNext("jmp_rob", b.MuxW(gJMP.fire, gJMP.rob, jmpRob))
	linkOrAuipc := b.MuxW(jmpIsAuipc, b.Add(gJMP.pcw, gJMP.imm), b.Add(gJMP.pcw, b.Const(4, XLEN)))
	b.SetNext("jmp_res", b.MuxW(gJMP.fire, linkOrAuipc, jmpRes))
	b.SetNext("jmp_wen", b.MuxW(gJMP.fire,
		circuit.Word{b.And2(b.Or2(jmpIsJump, jmpIsAuipc), b.IsZero(gJMP.rd).Not())}, jmpWen))
	takenNow := b.Or2(b.And2(jmpIsBr, branchTakenFromUop(b, gJMP.uop, gJMP.op1, gJMP.op2)), jmpIsJump)
	b.SetNext("jmp_taken", b.MuxW(gJMP.fire, circuit.Word{takenNow}, jmpTaken))
	jalrTgt := b.Add(gJMP.op1, gJMP.imm)
	brTgt := b.Add(gJMP.pcw, gJMP.imm)
	b.SetNext("jmp_tgt", b.MuxW(gJMP.fire,
		b.MuxW(b.EqConst(gJMP.uop, UopCode(isa.OpJalr)), jalrTgt, brTgt), jmpTgt))

	// --- Writeback ---------------------------------------------------------
	type writer struct {
		valid, wen circuit.Signal
		rd         circuit.Word
		res        circuit.Word
		rob        circuit.Word
	}
	writers := []writer{
		{aluDone, b.And2(aluDone, aluWen), aluRd, aluRes, aluRob},
		{mulDone, b.And2(mulDone, mulWen), mrd[mulDepth-1], mres[mulDepth-1], mrob[mulDepth-1]},
		{memDone, b.And2(memDone, memWenOK), memRd, memRes, memRob},
		{jmpDone, b.And2(jmpDone, b.And2(jmpWen[0], b.IsZero(jmpRd).Not())), jmpRd, jmpRes, jmpRob},
	}
	for r := 1; r < NRegs; r++ {
		cur := rf[r]
		curBusy := busy[r][0]
		for _, w := range writers {
			hit := b.And2(w.wen, b.EqConst(w.rd, uint64(r)))
			cur = b.MuxW(hit, w.res, cur)
			curBusy = b.Mux2(hit, circuit.False, curBusy)
		}
		setBusy := b.AndN(dispatch, dd.writesRd, b.EqConst(dd.rd, uint64(r)))
		curBusy = b.Mux2(setBusy, circuit.True, curBusy)
		b.SetNext(fmt.Sprintf("rf%d", r), cur)
		b.SetNext(fmt.Sprintf("busy%d", r), circuit.Word{curBusy})
	}

	// --- Retire --------------------------------------------------------------
	retireNow := b.And2(robAt(robv, head), robAt(robd, head))
	b.SetNext("retire_valid", circuit.Word{retireNow})
	incMod := func(x circuit.Word, n int) circuit.Word {
		wrap := b.EqConst(x, uint64(n-1))
		return b.MuxW(wrap, b.Const(0, len(x)), b.Inc(x))
	}
	b.SetNext("rob_head", b.MuxW(retireNow, incMod(head, v.ROB), head))
	b.SetNext("rob_tail", b.MuxW(dispatch, incMod(tail, v.ROB), tail))

	// --- ROB next state -------------------------------------------------------
	for i := 0; i < v.ROB; i++ {
		isHead := b.EqConst(head, uint64(i))
		isTail := b.EqConst(tail, uint64(i))
		vNext := robv[i][0]
		vNext = b.Mux2(b.And2(retireNow, isHead), circuit.False, vNext)
		vNext = b.Mux2(b.And2(dispatch, isTail), circuit.True, vNext)
		b.SetNext(fmt.Sprintf("robv%d", i), circuit.Word{vNext})

		dNext := robd[i][0]
		for _, w := range writers {
			dNext = b.Mux2(b.And2(w.valid, b.EqConst(w.rob, uint64(i))), circuit.True, dNext)
		}
		dNext = b.Mux2(b.And2(flush, robv[i][0]), circuit.True, dNext)
		dNext = b.Mux2(b.And2(dispatch, isTail), nopLike, dNext)
		b.SetNext(fmt.Sprintf("robd%d", i), circuit.Word{dNext})

		b.SetNext(fmt.Sprintf("robop%d", i),
			b.MuxW(b.And2(dispatch, isTail), dd.uop, robop[i]))
	}

	// --- Issue-queue next state ------------------------------------------------
	allocTaken := circuit.False
	for i := range iq {
		e := &iq[i]
		grantedI := b.OrN(aluG[i], mulG[i], memG[i], jmpG[i])
		free := e.v[0].Not()
		alloc := b.AndN(dispatchIQ, free, allocTaken.Not())
		allocTaken = b.Or2(allocTaken, free)

		vNext := b.And2(e.v[0], grantedI.Not())
		vNext = b.Or2(vNext, alloc)
		vNext = b.And2(vNext, flush.Not())
		b.SetNext(e.vN, circuit.Word{vNext})
		b.SetNext(e.opN, b.MuxW(alloc, dd.uop, e.op))
		b.SetNext(e.rdN, b.MuxW(alloc, dd.rd, e.rd))
		b.SetNext(e.rs1N, b.MuxW(alloc, dd.rs1, e.rs1))
		b.SetNext(e.rs2N, b.MuxW(alloc, dd.rs2, e.rs2))
		b.SetNext(e.immN, b.MuxW(alloc, dd.imm, e.imm))
		b.SetNext(e.pcN, b.MuxW(alloc, pc, e.pc))
		b.SetNext(e.robN, b.MuxW(alloc, tail, e.rob))
		w1Alloc := b.And2(dd.usesRs1, busyOf(dd.rs1))
		w2Alloc := b.And2(dd.usesRs2, busyOf(dd.rs2))
		b.SetNext(e.w1N, circuit.Word{b.Mux2(alloc, w1Alloc, b.And2(e.w1[0], busyOf(e.rs1)))})
		b.SetNext(e.w2N, circuit.Word{b.Mux2(alloc, w2Alloc, b.And2(e.w2[0], busyOf(e.rs2)))})
	}

	// --- Fetch queue next state --------------------------------------------------
	ind := decode(b, instrIn)
	enq := ind.known
	afterVal := make([]circuit.Word, v.FetchQueue)
	afterV := make([]circuit.Signal, v.FetchQueue)
	for i := 0; i < v.FetchQueue; i++ {
		if i+1 < v.FetchQueue {
			afterVal[i] = b.MuxW(dispatch, fq[i+1], fq[i])
			afterV[i] = b.Mux2(dispatch, fqv[i+1][0], fqv[i][0])
		} else {
			afterVal[i] = fq[i]
			afterV[i] = b.And2(dispatch.Not(), fqv[i][0])
		}
	}
	prefixValid := circuit.True
	for i := 0; i < v.FetchQueue; i++ {
		put := b.AndN(enq, afterV[i].Not(), prefixValid)
		prefixValid = b.And2(prefixValid, afterV[i])
		b.SetNext(fmt.Sprintf("fq%d", i), b.MuxW(put, instrIn, afterVal[i]))
		vNext := b.Or2(put, afterV[i])
		vNext = b.And2(vNext, flush.Not())
		b.SetNext(fmt.Sprintf("fqv%d", i), circuit.Word{vNext})
	}

	// --- PC ------------------------------------------------------------------------
	pcNext := b.MuxW(dispatch, b.Add(pc, b.Const(4, XLEN)), pc)
	b.SetNext("pc", b.MuxW(flush, jmpTgt, pcNext))

	c, err := b.Build()
	if err != nil {
		return nil, err
	}

	// --- Target metadata --------------------------------------------------------
	ops := make([]string, 0, len(isa.AllOps()))
	var candidates []string
	for _, op := range isa.AllOps() {
		ops = append(ops, op.String())
		if !op.IsMem() && !op.IsControlFlow() {
			candidates = append(candidates, op.String())
		}
	}
	secrets := make([]string, 0, NRegs-1)
	for r := 1; r < NRegs; r++ {
		secrets = append(secrets, fmt.Sprintf("rf%d", r))
	}

	var masks []MaskRule
	for i := range iq {
		e := &iq[i]
		masks = append(masks, MaskRule{
			ValidReg: e.vN,
			Fields:   []string{e.opN, e.rdN, e.rs1N, e.rs2N, e.immN, e.pcN, e.robN, e.w1N, e.w2N},
		})
	}
	for i := 0; i < v.ROB; i++ {
		masks = append(masks, MaskRule{
			ValidReg: fmt.Sprintf("robv%d", i),
			Fields:   []string{fmt.Sprintf("robd%d", i), fmt.Sprintf("robop%d", i)},
		})
	}
	for i := 0; i < v.FetchQueue; i++ {
		masks = append(masks, MaskRule{
			ValidReg: fmt.Sprintf("fqv%d", i),
			Fields:   []string{fmt.Sprintf("fq%d", i)},
		})
	}
	// Counters (alu_cnt etc.) are deliberately NOT masked: they are not
	// instruction residue, and masking them would hide live values from
	// the miner, over-generating constant predicates that only fail later
	// (wasted backtracking).
	masks = append(masks,
		MaskRule{ValidReg: "alu_busy", Fields: []string{"alu_op", "alu_rd", "alu_rob", "alu_lat"}},
		MaskRule{ValidReg: "mem_busy", Fields: []string{"mem_rd", "mem_rob", "mem_lat", "mem_wen"}},
		MaskRule{ValidReg: "jmp_busy", Fields: []string{"jmp_rd", "jmp_rob", "jmp_lat", "jmp_wen", "jmp_taken"}},
	)
	for k := 0; k < mulDepth; k++ {
		masks = append(masks, MaskRule{
			ValidReg: fmt.Sprintf("mulv%d", k),
			Fields:   []string{fmt.Sprintf("mulrd%d", k), fmt.Sprintf("mulrob%d", k)},
		})
	}

	uopRegs := []string{"alu_op"}
	for i := range iq {
		uopRegs = append(uopRegs, iq[i].opN)
	}
	for i := 0; i < v.ROB; i++ {
		uopRegs = append(uopRegs, fmt.Sprintf("robop%d", i))
	}

	return &Target{
		Name:          v.Name,
		Circuit:       c,
		Observable:    []string{"retire_valid"},
		InstrPort:     "instr",
		Nop:           uint64(isa.NOP()),
		Ops:           ops,
		CandidateSafe: candidates,
		Encode:        encodeRV32,
		EncodeDep:     encodeRV32Regs,
		SecretRegs:    secrets,
		SafePatterns:  rv32SafePatterns,
		MaxLatency:    20,
		Masks:         masks,
		UopRules: func(safe []string) []UopRule {
			allowed := []uint64{0, UopCode(isa.OpAddi)} // bubble/reset + NOP
			seen := map[uint64]bool{0: true, UopCode(isa.OpAddi): true}
			for _, mn := range safe {
				if op, ok := isa.ParseOp(mn); ok && !seen[UopCode(op)] {
					seen[UopCode(op)] = true
					allowed = append(allowed, UopCode(op))
				}
			}
			rules := make([]UopRule, 0, len(uopRegs))
			for _, reg := range uopRegs {
				rules = append(rules, UopRule{Reg: reg, Values: allowed})
			}
			return rules
		},
		DirtyPreamble: func(rng *rand.Rand) []uint64 {
			// Unsafe instructions with public-only operands (x0), so the
			// preamble behaves identically in both copies while leaving
			// unsafe uop residue in the issue queue, ROB and FUs.
			sw := isa.S(isa.OpSw, 0, 0, int32(8+rng.Intn(4)*4)).Encode()
			div := isa.R(isa.OpDiv, 0, 0, 0).Encode()
			return []uint64{uint64(sw), uint64(div)}
		},
	}, nil
}
