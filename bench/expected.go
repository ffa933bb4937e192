package main

// The answers every benchmark operation is checked against. They are
// transcribed by hand from Table 2 of the paper (and Appendix C for the
// ExecStage example) and are never derived from the code under test: a
// change that makes the learner faster by making it wrong fails here.
//
//	InOrder (Rocket-class): ALU ops + auipc safe; mul*/div* unsafe
//	                        (zero-skip iterative multiplier, iterative divider)
//	OoO (BOOM-class, all sizes): ALU ops + mul* safe; auipc/div* unsafe
//	                        (pipelined multiplier; auipc issue-path quirk)
//	ExecStage (Appendix C): add safe; mul unsafe (zero-skip multiplier)
//
// Memory and control-flow instructions are excluded by category before
// synthesis starts and appear in neither list.

import (
	"fmt"
	"sort"
	"strings"
)

var (
	aluOps = []string{
		"add", "addi", "sub", "xor", "xori", "and", "andi", "or", "ori",
		"sll", "slli", "srl", "srli", "sra", "srai",
		"lui", "slt", "slti", "sltu", "sltiu",
	}
	mulOps = []string{"mul", "mulh", "mulhsu", "mulhu"}
	divOps = []string{"div", "divu", "rem", "remu"}
)

func union(sets ...[]string) []string {
	var out []string
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

// table2 is the expected synthesis outcome per microarchitecture family.
var table2 = map[string]struct{ safe, unsafe []string }{
	"execstage": {safe: []string{"add"}, unsafe: []string{"mul"}},
	"inorder":   {safe: union(aluOps, []string{"auipc"}), unsafe: union(mulOps, divOps)},
	"ooo":       {safe: union(aluOps, mulOps), unsafe: union([]string{"auipc"}, divOps)},
}

// mustFail is the instruction whose addition to the family's safe set must
// turn a verification into None: the mul/auipc flip between the two
// microarchitectures is the paper's headline security finding.
var mustFail = map[string]string{"inorder": "mul", "ooo": "auipc"}

// family maps a design name to its row of table2: every OoO size, with or
// without the debug counter, shares the OoO row.
func family(design string) string {
	switch design {
	case "execstage", "inorder":
		return design
	}
	return "ooo"
}

// safeSet is the proposal of a positive verification of the design.
func safeSet(design string) []string { return table2[family(design)].safe }

// unsafeProposal is the proposal of a verification that must answer None.
func unsafeProposal(design string) []string {
	f := family(design)
	return union(table2[f].safe, []string{mustFail[f]})
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSynthesis compares a synthesized safe/unsafe partition with table2.
func checkSynthesis(design string, safe, unsafe []string) error {
	want := table2[family(design)]
	if !sameSet(safe, want.safe) {
		return fmt.Errorf("synthesize %s: safe set {%s}, want {%s}",
			design, strings.Join(safe, " "), strings.Join(want.safe, " "))
	}
	if !sameSet(unsafe, want.unsafe) {
		return fmt.Errorf("synthesize %s: unsafe set {%s}, want {%s}",
			design, strings.Join(unsafe, " "), strings.Join(want.unsafe, " "))
	}
	return nil
}

// checkVerdict compares a verification verdict with the expected one.
func checkVerdict(design string, proved, want bool) error {
	if proved == want {
		return nil
	}
	if want {
		return fmt.Errorf("verify %s: answered None for the Table 2 safe set", design)
	}
	return fmt.Errorf("verify %s: proved a set containing %q, which Table 2 lists unsafe",
		design, mustFail[family(design)])
}
