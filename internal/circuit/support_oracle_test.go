package circuit

import "sort"

// regSupportOracle is the definition of register ri's 1-step support that
// Support and RegSupport must equal: the names, sorted, of the registers a
// fan-in walk from the register's next-state roots reaches, computed per
// call with maps.
func (c *Circuit) regSupportOracle(ri int) []string {
	seen := make(map[int32]bool)
	regSet := make(map[int]bool)
	var stack []int32
	push := func(s Signal) {
		if n := s.Node(); !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for _, s := range c.regs[ri].Next {
		push(s)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch nd := c.nodes[n]; nd.kind {
		case kAnd:
			push(nd.a)
			push(nd.b)
		case kLatch:
			regSet[c.latches[nd.a].reg] = true
		}
	}
	out := make([]string, 0, len(regSet))
	for r := range regSet {
		out = append(out, c.regs[r].Name)
	}
	sort.Strings(out)
	return out
}
