package veloct

import (
	"fmt"
	"sort"

	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	"hhoudini/internal/hhoudini"
	"hhoudini/internal/isa"
	"hhoudini/internal/miter"
)

// Miner implements O_mine (Algorithm 2): it translates a slice of
// product-circuit registers into the candidate predicates consistent with
// every positive example. Expert annotations (UopRules) are validated
// against the examples before use, so incorrect annotations cannot cause
// unsoundness (§5.1.2).
//
// NewMiner runs Algorithm 2 once for every base register and keeps only
// the resulting predicate table: the examples are not referenced once it
// returns. A Miner is read-only after construction, so the parallel
// learner can share it without locking.
type Miner struct {
	regs  []string                   // base registers, in prod.BaseRegs() order
	table map[string][]hhoudini.Pred // base reg → its mined predicates
}

// NewMiner builds the mining oracle for a product circuit, a set of
// (masked) positive examples, the InSafeSet patterns of the proposed safe
// set, and optional expert annotations.
func NewMiner(prod *miter.Product, examples []circuit.Snapshot, patterns []isa.MaskMatch, rules []design.UopRule) (*Miner, error) {
	byReg := make(map[string][]design.UopRule)
	for _, r := range rules {
		byReg[r.Reg] = append(byReg[r.Reg], r)
	}
	m := &Miner{regs: prod.BaseRegs()}
	m.table = make(map[string][]hhoudini.Pred, len(m.regs))
	for _, base := range m.regs {
		preds, err := minePreds(prod, examples, patterns, byReg[base], base)
		if err != nil {
			return nil, err
		}
		m.table[base] = preds
	}
	return m, nil
}

// Mine implements hhoudini.MineOracle. The slice contains product-circuit
// register names (both copies); predicates are listed per base register,
// in sorted base-name order.
func (m *Miner) Mine(target hhoudini.Pred, slice []string) ([]hhoudini.Pred, error) {
	bases := make(map[string]bool)
	for _, r := range slice {
		base, _ := miter.BaseName(r)
		bases[base] = true
	}
	names := make([]string, 0, len(bases))
	for b := range bases {
		names = append(names, b)
	}
	sort.Strings(names)

	var out []hhoudini.Pred
	for _, base := range names {
		preds, ok := m.table[base]
		if !ok {
			return nil, fmt.Errorf("veloct: base register %q not in product circuit", base)
		}
		out = append(out, preds...)
	}
	return out, nil
}

// minePreds runs the per-register body of Algorithm 2.
func minePreds(prod *miter.Product, examples []circuit.Snapshot, patterns []isa.MaskMatch, rules []design.UopRule, base string) ([]hhoudini.Pred, error) {
	pair, err := resolvePair(prod, base)
	if err != nil {
		return nil, err
	}
	li, ri := pair.li, pair.ri
	if prod.Circuit.Regs()[li].Width > 64 {
		return nil, nil
	}
	// Rule (i): only registers equal across copies in every example are
	// candidates (line 2).
	for _, e := range examples {
		if e[li] != e[ri] {
			return nil, nil
		}
	}
	preds := []hhoudini.Pred{EqPred{Reg: base, pair: pair}} // line 5

	// EqConst when a single constant fits all examples (line 7).
	if len(examples) > 0 {
		c := examples[0][li]
		allSame := true
		for _, e := range examples {
			if e[li] != c {
				allSame = false
				break
			}
		}
		if allSame {
			preds = append(preds, EqConstPred{Reg: base, Val: c, pair: pair})
		}
	}

	// InSafeSet when consistent with every example (line 11), then the
	// expert predicates, validated against the examples (line 15).
	cands := []hhoudini.Pred{InSafeSetPred{Reg: base, Pats: patterns, pair: pair}}
	for _, rule := range rules {
		p := NewEqConstSet("InSafeUop", base, rule.Values)
		p.pair = pair
		cands = append(cands, p)
	}
	for _, p := range cands {
		ok, err := holdsOnAll(prod.Circuit, p, examples)
		if err != nil {
			return nil, err
		}
		if ok {
			preds = append(preds, p)
		}
	}
	return preds, nil
}

// holdsOnAll reports whether p holds on every example.
func holdsOnAll(c *circuit.Circuit, p hhoudini.Pred, examples []circuit.Snapshot) (bool, error) {
	for _, e := range examples {
		holds, err := p.Eval(c, e)
		if err != nil || !holds {
			return false, err
		}
	}
	return true, nil
}

// Universe lists the predicates of every register of the base design, in
// prod.BaseRegs() order — the full predicate set P* the monolithic
// baselines start from (§2.2.1's positive-example sifting, applied
// globally rather than per-slice).
func (m *Miner) Universe() ([]hhoudini.Pred, error) {
	var out []hhoudini.Pred
	for _, base := range m.regs {
		out = append(out, m.table[base]...)
	}
	return out, nil
}
