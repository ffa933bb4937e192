package circuit

import "fmt"

// DuplicateInto replays a finalized circuit inside a builder, renaming every
// register and wire with the given prefix. Inputs listed in shared are
// connected to the provided words instead of fresh inputs; all other inputs
// are recreated with the prefix. This is the primitive underlying miter
// (product-circuit) construction for relational 2-safety properties.
func DuplicateInto(b *Builder, c *Circuit, prefix string, shared map[string]Word) error {
	m := make([]Signal, len(c.nodes))
	m[0] = False

	conv := func(s Signal) Signal { return m[s.Node()].xorSign(s.Inverted()) }

	// Registers first so feedback cones resolve.
	for _, r := range c.regs {
		w := b.Register(prefix+r.Name, r.Width, r.Init)
		for i, sig := range r.Bits {
			m[sig.Node()] = w[i]
		}
	}
	for _, in := range c.inputs {
		w, ok := shared[in.Name]
		if !ok {
			w = b.Input(prefix+in.Name, in.Width)
		} else if len(w) != in.Width {
			return fmt.Errorf("circuit: shared input %q has width %d, want %d",
				in.Name, len(w), in.Width)
		}
		for i, sig := range in.Bits {
			m[sig.Node()] = w[i]
		}
	}
	for id, n := range c.nodes {
		if n.kind == kAnd {
			m[id] = b.And2(conv(n.a), conv(n.b))
		}
	}
	for _, r := range c.regs {
		next := make(Word, r.Width)
		for i, s := range r.Next {
			next[i] = conv(s)
		}
		b.SetNext(prefix+r.Name, next)
	}
	for _, name := range sortedNames(c.wires) {
		w := c.wires[name]
		nw := make(Word, len(w))
		for i, s := range w {
			nw[i] = conv(s)
		}
		b.Name(prefix+name, nw)
	}
	return nil
}
