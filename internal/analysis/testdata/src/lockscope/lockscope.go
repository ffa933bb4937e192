// Package lockscope is the golden-file fixture for hhlint's lockscope
// pass: engine mirrors the learner's lock + agent-visible callback shape
// (a function-typed field like a user clock, an oracle interface), and
// each violation carries a `// want` expectation.
package lockscope

import "sync"

type oracle interface {
	Mine(n int) []int
}

type engine struct {
	mu     sync.Mutex
	hook   func() int
	oracle oracle
	n      int
}

// badFieldHook invokes an agent-supplied function value while holding mu.
func badFieldHook(e *engine) {
	e.mu.Lock()
	e.hook() // want "call through function value e.hook while holding e.mu"
	e.mu.Unlock()
}

// badOracle re-enters the oracle under the lock: if Mine calls back into
// the engine, it deadlocks on mu.
func badOracle(e *engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.oracle.Mine(1) // want "call to Mine while holding e.mu"
}

// badParamHook: caller-injected callbacks are agent-visible too.
func badParamHook(e *engine, report func() int) {
	e.mu.Lock()
	report() // want "call through function value report while holding e.mu"
	e.mu.Unlock()
}

// evalLocked follows the …Locked convention: the caller holds the lock,
// so the same rule applies to the whole body.
func evalLocked(e *engine) int {
	return e.hook() // want "call through function value e.hook while holding a caller-held lock"
}

// badRelock defers the unlock and then locks again in the same body: the
// deferred Unlock only runs at return, so the second Lock self-deadlocks.
func badRelock(e *engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.n
	e.mu.Lock() // want "Lock of e.mu while it is still held in this function"
	return n
}

// reg mirrors a package-level registry that embeds its mutex.
var reg = struct {
	sync.Mutex
	hook func()
}{}

// badEmbeddedHook calls a stored callback under the promoted Lock of the
// embedded mutex.
func badEmbeddedHook() {
	reg.Lock()
	defer reg.Unlock()
	reg.hook() // want "call through function value reg.hook while holding reg"
}

// hook is a package-level function variable: any code in the package, or
// a test, may replace it.
var hook = func() {}

// badPackageHook calls the package-level variable by its bare name under
// the lock.
func badPackageHook(e *engine) {
	e.mu.Lock()
	hook() // want "call through function value hook while holding e.mu"
	e.mu.Unlock()
}

// --- locks copied by value -------------------------------------------------

func copyParam(e engine) int { // want "parameter of copyParam passes a lock by value"
	return e.n
}

func (e engine) copyRecv() int { // want "receiver of copyRecv passes a lock by value"
	return e.n
}

func copyResult() (e engine) { // want "result of copyResult passes a lock by value"
	return
}

// --- clean shapes ----------------------------------------------------------

// okOutside releases the lock before calling out.
func okOutside(e *engine) int {
	e.mu.Lock()
	n := e.n
	e.mu.Unlock()
	return e.hook() + n
}

// okLocal: calls to local closures (not caller-injected) are fine under
// the lock — they are engine code.
func okLocal(e *engine) int {
	double := func(v int) int { return 2 * v }
	e.mu.Lock()
	defer e.mu.Unlock()
	return double(e.n)
}
