// Package suppress is the golden-file fixture for hhlint's suppression
// comments: well-formed ignores silence the named pass on their line (or
// the next line), wrong-pass ignores do not, and malformed or unknown-pass
// ignores are themselves diagnostics under the "hhlint" pseudo-pass. The
// vehicle is panicscope's stray recover(), which fires on the line of the
// call.
package suppress

import "sync"

// standaloneOK: a standalone ignore suppresses the next line.
func standaloneOK() {
	//hhlint:ignore panicscope test fixture exercises standalone suppression
	recover()
}

// trailingOK: a trailing ignore suppresses its own line.
func trailingOK() {
	recover() //hhlint:ignore panicscope test fixture exercises trailing suppression
}

// allOK: the "all" wildcard silences every pass on the target line.
func allOK() any {
	//hhlint:ignore all test fixture exercises the all wildcard
	return recover()
}

// multiOK: comma-separated pass lists are honoured.
func multiOK() {
	recover() //hhlint:ignore panicscope,lockscope test fixture exercises multi-pass suppression
}

// wrongPass: suppressing a different pass leaves the finding intact.
func wrongPass() {
	//hhlint:ignore flusherr this names the wrong pass so panicscope still fires
	recover() // want "recover\\(\\) outside a designated panic boundary"
}

// missingReason: a suppression without a justification is malformed and is
// reported itself; it suppresses nothing, so the recover below still fires.
func missingReason() {
	/*hhlint:ignore panicscope*/ // want "malformed suppression"
	recover()                    // want "recover\\(\\) outside a designated panic boundary"
}

// unknownPass: typos must not silently disable enforcement.
func unknownPass() {
	/*hhlint:ignore nosuchpass the pass name is a typo*/ // want "suppression names unknown pass"
	recover()                                            // want "recover\\(\\) outside a designated panic boundary"
}

// good needs no suppression at all. (hhlint:panic-boundary)
func good() any {
	return recover()
}

// --- two passes firing on one line ------------------------------------------
//
// `e.hook(recover())` under a held lock triggers both panicscope (stray
// recover) and lockscope (callback under lock), which pins how multi-pass
// lines interact with each suppression spelling.

// locked carries a mutex and an agent hook.
type locked struct {
	mu   sync.Mutex
	hook func(any)
}

// twoPassSpace: everything after the first space-separated token is reason
// text, NOT a second pass name — so only panicscope is silenced and
// lockscope still fires.
func twoPassSpace(e *locked) {
	e.mu.Lock()
	defer e.mu.Unlock()
	//hhlint:ignore panicscope the word lockscope below is reason text, not a pass list
	e.hook(recover()) // want "call through function value e.hook while holding e.mu"
}

// twoPassComma: the comma-separated list silences both passes with one
// comment.
func twoPassComma(e *locked) {
	e.mu.Lock()
	defer e.mu.Unlock()
	//hhlint:ignore panicscope,lockscope one comma-separated ignore covers both passes on the next line
	e.hook(recover())
}

// twoPassTwoComments: a standalone ignore (scoping to the next line) and a
// trailing ignore (scoping to its own line) stack on one target line.
func twoPassTwoComments(e *locked) {
	e.mu.Lock()
	defer e.mu.Unlock()
	//hhlint:ignore lockscope stacked with the trailing ignore on the next line
	e.hook(recover()) //hhlint:ignore panicscope the two comments together silence both passes
}

// --- ignore on a closing-brace line -----------------------------------------

// braceLine: an ignore on the closing brace scopes to the brace line and
// the line after it — never backward into the block, so the recover above
// still fires.
func braceLine() {
	recover() // want "recover\\(\\) outside a designated panic boundary"
} //hhlint:ignore panicscope brace-line scope is the brace line and the next line only
