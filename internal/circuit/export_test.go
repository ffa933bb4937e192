package circuit

// Hooks for the external tests in cone_product_test.go, which fingerprint
// real design products (internal/design imports this package, so those
// tests live in package circuit_test).

// ConeOracle is the reference cone fingerprint (see coneOracle).
func ConeOracle(c *Circuit, support []string) ConeFP { return c.coneOracle(support) }

// ResetConeTable gives c a cold cone table: no memoized fingerprints and no
// root hashes. Not safe for concurrent use.
func ResetConeTable(c *Circuit) { c.cones = &coneTable{m: make(map[string]ConeFP)} }

// SharesConeTable reports whether a and b share one cone table, and with it
// the memo and the root hashes.
func SharesConeTable(a, b *Circuit) bool { return a.coneTab() == b.coneTab() }
