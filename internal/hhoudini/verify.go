package hhoudini

import (
	"fmt"

	"hhoudini/internal/circuit"
	"hhoudini/internal/sat"
)

// DefaultAuditConflicts bounds Audit's monolithic consecution query. The
// audit is exactly the expensive whole-invariant check H-Houdini avoids
// during learning, so it gets a generous allowance — orders of magnitude
// above what the evaluated designs need — but no longer runs unbounded: a
// pathological instance surfaces as ErrBudgetExceeded instead of a hang.
const DefaultAuditConflicts = 50_000_000

// Audit monolithically verifies a learned invariant against Definition
// 2.2: initiation, consecution (one SAT query over the conjunction of all
// predicates — exactly the expensive check H-Houdini avoids during
// learning, used here as an independent soundness check, as the paper did
// for the Rocketchip invariant), and property inclusion. The consecution
// query runs under DefaultAuditConflicts; use AuditBudget to choose the
// budget (or lift it).
func Audit(sys *System, inv *Invariant) error {
	return AuditBudget(sys, inv, DefaultAuditConflicts)
}

// AuditBudget is Audit with an explicit conflict budget on the consecution
// query; conflicts <= 0 solves unbounded. A budget exhaustion returns an
// error wrapping ErrBudgetExceeded — a resource verdict, not a soundness
// one: callers may retry with a larger budget.
func AuditBudget(sys *System, inv *Invariant, conflicts int64) error {
	// (i) Initiation: every predicate holds in the initial state.
	init := circuit.InitSnapshot(sys.Circuit)
	for _, p := range inv.Preds {
		ok, err := p.Eval(sys.Circuit, init)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("hhoudini: initiation fails for %s", p)
		}
	}

	// (iii) Property: every target is part of the invariant, so H ⟹ P
	// trivially.
	for _, t := range inv.Targets {
		if !inv.Contains(t.ID()) {
			return fmt.Errorf("hhoudini: target %s missing from invariant", t)
		}
	}

	// (ii) Consecution: ⋀H ∧ T ∧ ¬⋀H' must be unsatisfiable.
	enc, err := sys.newEncoder()
	if err != nil {
		return err
	}
	var negNext []sat.Lit
	for _, p := range inv.Preds {
		cur, err := p.Encode(enc, false)
		if err != nil {
			return err
		}
		enc.AssertLit(cur)
		next, err := p.Encode(enc, true)
		if err != nil {
			return err
		}
		negNext = append(negNext, next.Not())
	}
	enc.S.AddClause(negNext...)
	if conflicts > 0 {
		enc.S.MaxConflicts = conflicts
	}
	switch enc.S.Solve() {
	case sat.Sat:
		return fmt.Errorf("hhoudini: consecution fails: invariant is not inductive")
	case sat.Unknown:
		return fmt.Errorf("hhoudini: consecution check (budget %d conflicts): %w", conflicts, ErrBudgetExceeded)
	}
	return nil
}

// CheckExamples verifies the P-S premise on a set of example states: every
// predicate of the invariant must admit every positive example.
func CheckExamples(sys *System, inv *Invariant, examples []circuit.Snapshot) error {
	for _, e := range examples {
		for _, p := range inv.Preds {
			ok, err := p.Eval(sys.Circuit, e)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("hhoudini: predicate %s rejects a positive example", p)
			}
		}
	}
	return nil
}
