package veloct

import (
	"sort"
	"sync"

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
// Results are memoized per base register, which is what makes overlapping
// cones cheap to re-mine. The Miner is safe for concurrent use by the
// parallel learner.
type Miner struct {
	prod     *miter.Product
	examples []circuit.Snapshot
	patterns []isa.MaskMatch
	rules    map[string][]design.UopRule // base reg → expert rules

	mu    sync.Mutex
	cache map[string][]hhoudini.Pred
}

// NewMiner builds the mining oracle for a product circuit, a set of
// (masked) positive examples, the InSafeSet patterns of the proposed safe
// set, and optional expert annotations.
func NewMiner(prod *miter.Product, examples []circuit.Snapshot, patterns []isa.MaskMatch, rules []design.UopRule) *Miner {
	byReg := make(map[string][]design.UopRule)
	for _, r := range rules {
		byReg[r.Reg] = append(byReg[r.Reg], r)
	}
	return &Miner{
		prod:     prod,
		examples: examples,
		patterns: patterns,
		rules:    byReg,
		cache:    make(map[string][]hhoudini.Pred),
	}
}

// Mine implements hhoudini.MineOracle. The slice contains product-circuit
// register names (both copies); predicates are generated per base
// register.
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
		preds, err := m.predsFor(base)
		if err != nil {
			return nil, err
		}
		out = append(out, preds...)
	}
	return out, nil
}

// predsFor runs the per-register body of Algorithm 2.
func (m *Miner) predsFor(base string) ([]hhoudini.Pred, error) {
	m.mu.Lock()
	if cached, ok := m.cache[base]; ok {
		m.mu.Unlock()
		return cached, nil
	}
	m.mu.Unlock()

	pair, err := resolvePair(m.prod, base)
	if err != nil {
		return nil, err
	}
	li, ri := pair.li, pair.ri
	width := m.prod.Circuit.Regs()[li].Width

	var preds []hhoudini.Pred
	if width <= 64 {
		// Rule (i): only registers equal across copies in every example
		// are candidates (line 2).
		inVEq := true
		for _, e := range m.examples {
			if e[li] != e[ri] {
				inVEq = false
				break
			}
		}
		if inVEq {
			preds = append(preds, EqPred{Reg: base, pair: pair}) // line 5

			// EqConst when a single constant fits all examples (line 7).
			if len(m.examples) > 0 {
				c := m.examples[0][li]
				allSame := true
				for _, e := range m.examples {
					if e[li] != c {
						allSame = false
						break
					}
				}
				if allSame {
					preds = append(preds, EqConstPred{Reg: base, Val: c, pair: pair})
				}
			}

			// InSafeSet when consistent with every example (line 11).
			safe := InSafeSetPred{Reg: base, Pats: m.patterns, pair: pair}
			ok := true
			for _, e := range m.examples {
				holds, err := safe.Eval(m.prod.Circuit, e)
				if err != nil {
					return nil, err
				}
				if !holds {
					ok = false
					break
				}
			}
			if ok {
				preds = append(preds, safe)
			}

			// Expert predicates, validated against the examples (line 15).
			for _, rule := range m.rules[base] {
				p := NewEqConstSet("InSafeUop", base, rule.Values)
				p.pair = pair
				ok := true
				for _, e := range m.examples {
					holds, err := p.Eval(m.prod.Circuit, e)
					if err != nil {
						return nil, err
					}
					if !holds {
						ok = false
						break
					}
				}
				if ok {
					preds = append(preds, p)
				}
			}
		}
	}

	m.mu.Lock()
	m.cache[base] = preds
	m.mu.Unlock()
	return preds, nil
}

// Universe mines predicates for every register of the base design — the
// full predicate set P* the monolithic baselines start from (§2.2.1's
// positive-example sifting, applied globally rather than per-slice).
func (m *Miner) Universe() ([]hhoudini.Pred, error) {
	var out []hhoudini.Pred
	for _, name := range m.prod.BaseRegs() {
		preds, err := m.predsFor(name)
		if err != nil {
			return nil, err
		}
		out = append(out, preds...)
	}
	return out, nil
}
