// Package miter builds product (miter) circuits for relational 2-safety
// verification.
//
// A miter contains two renamed copies of a base circuit — the "left" and
// "right" executions of Definition 4.5 — driven by the same primary inputs
// (both traces execute the same instruction sequence; only internal state,
// e.g. register-file secrets, may differ). Relational predicates such as
// Eq(v) relate the l:: and r:: copies of a base register.
package miter

import (
	"fmt"
	"strings"

	"hhoudini/internal/circuit"
)

// Prefixes for the two execution copies inside the product circuit.
const (
	LeftPrefix  = "l::"
	RightPrefix = "r::"
)

// Left returns the product-circuit name of the left copy of a base signal.
func Left(name string) string { return LeftPrefix + name }

// Right returns the product-circuit name of the right copy of a base signal.
func Right(name string) string { return RightPrefix + name }

// BaseName strips the copy prefix from a product-circuit name.
// The second result reports whether the name carried a prefix.
func BaseName(name string) (string, bool) {
	if strings.HasPrefix(name, LeftPrefix) {
		return name[len(LeftPrefix):], true
	}
	if strings.HasPrefix(name, RightPrefix) {
		return name[len(RightPrefix):], true
	}
	return name, false
}

// Product is a built miter.
type Product struct {
	// Circuit is the product circuit containing l:: and r:: copies of every
	// register and wire of the base circuit, sharing the base's inputs.
	Circuit *circuit.Circuit
	// Base is the original circuit.
	Base *circuit.Circuit
}

// Build constructs the product of a circuit with itself.
func Build(base *circuit.Circuit) (*Product, error) {
	b := circuit.NewBuilder()
	shared := make(map[string]circuit.Word, len(base.Inputs()))
	for _, in := range base.Inputs() {
		shared[in.Name] = b.Input(in.Name, in.Width)
	}
	if err := circuit.DuplicateInto(b, base, LeftPrefix, shared); err != nil {
		return nil, err
	}
	if err := circuit.DuplicateInto(b, base, RightPrefix, shared); err != nil {
		return nil, err
	}
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Product{Circuit: c, Base: base}, nil
}

// RegPair returns the product-circuit register indices of the left and
// right copies of a base register.
func (p *Product) RegPair(base string) (left, right int, err error) {
	left = p.Circuit.RegIndex(Left(base))
	right = p.Circuit.RegIndex(Right(base))
	if left < 0 || right < 0 {
		return 0, 0, fmt.Errorf("miter: base register %q not present in product", base)
	}
	return left, right, nil
}

// BaseRegs returns the names of the base circuit's registers (the variable
// universe V over which relational predicates range).
func (p *Product) BaseRegs() []string {
	regs := p.Base.Regs()
	out := make([]string, len(regs))
	for i, r := range regs {
		out[i] = r.Name
	}
	return out
}
