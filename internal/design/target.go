// Package design contains the processor designs evaluated in the paper's
// experiments, rebuilt from scratch on the circuit substrate:
//
//   - ExecStage: the worked example of Appendix C (an ADD functional unit
//     next to a zero-skip iterative multiplier).
//   - InOrder ("rocket-class"): a scalar in-order pipeline standing in for
//     Rocketchip — zero-skip multiplier, variable-latency memory unit,
//     branches; verifiable with no expert annotations.
//   - OoO ("boom-class"): an out-of-order core standing in for BOOM —
//     issue queue and ROB tables with valid bits and stale entries
//     (requiring example masking), decoded uops (requiring InSafeUop
//     annotations), a constant-latency pipelined multiplier (making mul
//     safe), and an auipc issue quirk that makes auipc unverifiable, in
//     four size variants Small/Medium/Large/Mega.
//
// Each design is packaged as a Target: the circuit plus the metadata the
// VeloCT analysis needs (observable signals, instruction encoding, secret
// registers, safe-set patterns, expert annotations).
package design

import (
	"math/rand"

	"hhoudini/internal/circuit"
	"hhoudini/internal/isa"
)

// MaskRule is an example-masking annotation (§5.2.1): when ValidReg holds 0
// in a positive example, the listed field registers are reset to their
// declared reset values before the example is used for mining.
type MaskRule struct {
	ValidReg string
	Fields   []string
}

// UopRule is an expert predicate annotation (§6.2): the named register may
// only hold one of the listed constant values (an EqConstSet / InSafeUop
// style predicate). Rules are validated against positive examples before
// use, so incorrect annotations cannot cause unsoundness.
type UopRule struct {
	Reg    string
	Values []uint64
}

// Target couples a circuit with the analysis-facing metadata of a design
// under SISP verification.
type Target struct {
	// Name identifies the design ("ExecStage", "InOrder", "SmallOoO", ...).
	Name string
	// Circuit is the single-copy design (the analysis builds the miter).
	Circuit *circuit.Circuit
	// Observable lists base register names visible to the attacker
	// (Definition 4.2); the property is Eq over each.
	Observable []string
	// InstrPort is the input port receiving one instruction word per cycle.
	InstrPort string
	// Nop is the word meaning "no instruction" (ε).
	Nop uint64
	// Ops lists the mnemonics the design implements.
	Ops []string
	// CandidateSafe lists the mnemonics worth testing for safety;
	// memory and control-flow instructions are categorized unsafe a
	// priori, as the paper does (§6.4).
	CandidateSafe []string
	// Encode produces an instruction word for a mnemonic with randomized
	// operand registers/immediates.
	Encode func(mn string, rng *rand.Rand) (uint64, error)
	// EncodeDep is Encode with pinned operand registers; example
	// generation uses it to build dependency-chained bursts that fill the
	// deep backend structures of large designs. Optional.
	EncodeDep func(mn string, rd, rs1, rs2 int, rng *rand.Rand) (uint64, error)
	// SecretRegs are the registers holding secret data (V_sec); example
	// generation gives them differing values in the two copies.
	SecretRegs []string
	// SafePatterns generates the InSafeSet mask/match patterns for a
	// proposed safe set (always including the Nop word).
	SafePatterns func(safe []string) []isa.MaskMatch
	// MaxLatency bounds the cycles an instruction may stay in flight; used
	// for NOP padding in example generation.
	MaxLatency int
	// Masks are the example-masking annotations (empty = none needed).
	Masks []MaskRule
	// UopRules generates the expert uop-constraint annotations for a
	// proposed safe set (nil = none needed).
	UopRules func(safe []string) []UopRule
	// DirtyPreamble returns unsafe instruction words executed (fully
	// padded) before the instruction under analysis, mimicking the
	// paper's start-up code that leaves residue in pipeline tables.
	// May be nil.
	DirtyPreamble func(rng *rand.Rand) []uint64
}

// HasOp reports whether the target implements the mnemonic.
func (t *Target) HasOp(mn string) bool {
	for _, o := range t.Ops {
		if o == mn {
			return true
		}
	}
	return false
}
