// Package hhoudini implements the paper's core contribution: the
// H-Houdini scalable invariant-learning algorithm (Algorithm 1).
//
// H-Houdini replaces the monolithic inductivity checks of MLIS learners
// (Houdini/Sorcar) with a hierarchy of small relative-induction checks,
// one per predicate, that are property-directed, incremental, memoizable
// and parallelizable (§3). Each check is an abduction query answered by an
// UNSAT core over predicate selector literals (§3.2.3); the hierarchy of
// abducts composes into a monolithic inductive invariant that is correct
// by construction (§3.1) and never needs to be checked directly — though
// this package can audit it monolithically as well (as the paper did for
// Rocketchip).
//
// The package is generic over the predicate language: predicate mining is
// an oracle interface, so the VeloCT instantiation (package veloct) and
// the unit tests plug in different languages.
package hhoudini

import (
	"hhoudini/internal/circuit"
	"hhoudini/internal/sat"
)

// Pred is a predicate over the states of the transition system's circuit.
// Implementations must be immutable and comparable via ID.
type Pred interface {
	// ID is a canonical key used for memoization and failure tracking.
	// Two predicates with equal IDs must be semantically identical.
	ID() string
	// Vars lists the circuit register names the predicate ranges over.
	// The learner's slice is the union of their 1-step cones of influence
	// (circuit.Support).
	Vars() []string
	// Encode returns a literal equivalent to the predicate evaluated on
	// the current state (next == false) or on the successor state
	// (next == true) of a single encoded transition.
	Encode(enc *circuit.Encoder, next bool) (sat.Lit, error)
	// Eval evaluates the predicate on a concrete state snapshot.
	Eval(c *circuit.Circuit, s circuit.Snapshot) (bool, error)
	// String renders the predicate for humans.
	String() string
}

// MineOracle is O_mine of Algorithm 1: it translates a slice into the
// candidate predicates considered when synthesizing an abduct for the
// target. Implementations must only return predicates consistent with all
// positive examples (Contract 2); completeness of the returned set over
// the slice gives Contract 1. The slice lists register names sorted; the
// learner reuses it across a target's tasks, so it must not be modified.
type MineOracle interface {
	Mine(target Pred, slice []string) ([]Pred, error)
}
