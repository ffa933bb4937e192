package circuit

// Hooks for the external tests in cone_product_test.go, which slice and
// fingerprint real design products (internal/design imports this package, so those
// tests live in package circuit_test).

// ConeOracle is the reference cone fingerprint (see coneOracle).
func ConeOracle(c *Circuit, support []string) ConeFP { return c.coneOracle(support) }

// ResetConeTable gives c a cold cone table: no memoized fingerprints and no
// root hashes. Not safe for concurrent use.
func ResetConeTable(c *Circuit) { c.cones = coneTable{} }

// SupportOracle is the reference 1-step support (see regSupportOracle).
func SupportOracle(c *Circuit, ri int) []string { return c.regSupportOracle(ri) }
