// Package metabuggy is a deliberately buggy fixture with NO `// want`
// comments: the harness meta-test asserts that running the default passes
// over it yields exactly the expected diagnostic set — no more, no less.
// harness_test.go locates each bug by the marker substring on its line.
package metabuggy

import (
	"context"
	"sync"
	"time"
)

func nap(ctx context.Context) {
	time.Sleep(time.Millisecond) // BUG(ctxflow): sleeps without observing ctx
}

type engine struct {
	mu   sync.Mutex
	hook func() int
}

func hookUnderLock(e *engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hook() // BUG(lockscope): callback under lock
}
