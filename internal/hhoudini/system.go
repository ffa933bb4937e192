package hhoudini

import (
	"hhoudini/internal/circuit"
	"hhoudini/internal/sat"
)

// System is the transition system under verification: a circuit plus an
// optional environment assumption constraining the primary inputs during
// every transition. For VeloCT the assumption restricts the instruction
// input to the proposed safe set plus ε (Definition 4.4 quantifies over
// sequences of safe instructions, so the transition relation is taken
// under safe inputs).
type System struct {
	Circuit *circuit.Circuit
	// Constrain asserts the environment assumption into an encoder, or is
	// nil when inputs are unconstrained.
	Constrain func(enc *circuit.Encoder) error
	// EnvKey is the canonical identity of the environment assumption: two
	// Systems over the same circuit with equal EnvKeys must install
	// logically identical assumptions. A System with a non-nil Constrain and
	// an empty EnvKey is not cacheable: the verification cache refuses to
	// memoize any answer for it. Changing the safe set changes the key,
	// which is the cache's invalidation story.
	EnvKey string
	// Namespace partitions every cache identity (ConeCacheKey) by
	// an opaque owner id — the multi-tenant service folds each tenant's id
	// in here. Soundness is inherited from the key discipline: two systems
	// with different namespaces never produce equal keys, so no verdict or
	// abduct can cross a tenant boundary; within one namespace the keys (and
	// thus warm transfer, including cross-design cone transfer) behave
	// exactly as without namespacing. Empty means the default, shared
	// namespace.
	Namespace string
}

// newEncoder builds a fresh solver+encoder pair with the environment
// assumption asserted.
func (s *System) newEncoder() (*circuit.Encoder, error) {
	enc := circuit.NewEncoder(s.Circuit, sat.New())
	if s.Constrain != nil {
		if err := s.Constrain(enc); err != nil {
			return nil, err
		}
	}
	return enc, nil
}

// cacheable reports whether the system's answers may be memoized at all.
// Systems with an anonymous environment assumption (Constrain set, EnvKey
// empty) are not: nothing identifies what their answers were derived under.
func (s *System) cacheable() bool {
	return s.Constrain == nil || s.EnvKey != ""
}

// nsPrefix renders the namespace component of every cache key. The \x02
// separator cannot appear in a tenant id that came through the service's
// validation, and the prefix form keeps the un-namespaced keys byte-
// identical to their pre-namespace spelling (no cache invalidation on
// upgrade).
func (s *System) nsPrefix() string {
	if s.Namespace == "" {
		return ""
	}
	return "ns:" + s.Namespace + "\x02"
}

// ConeCacheKey returns the cone-level cache identity for queries whose
// candidate universe is drawn from the given register support: the
// canonical fingerprint of the support's fan-in cone combined with the
// environment-assumption key. It is invariant to everything outside the
// cone — the same cone embedded in a different design produces
// the same key, which is what makes cross-design cache transfer sound: an
// equal key pins the support registers' names, widths, reset values and
// next-state expression trees, and the full input interface. The bool is
// false when the system is not cacheable.
func (s *System) ConeCacheKey(support []string) (string, bool) {
	if !s.cacheable() {
		return "", false
	}
	return s.nsPrefix() + "cone:" + s.Circuit.ConeFingerprint(support).Hex() + "|" + s.EnvKey, true
}
