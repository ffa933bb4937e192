// Package metabuggy is a deliberately buggy fixture with NO `// want`
// comments: the harness meta-test asserts that running the default passes
// over it yields exactly the expected diagnostic set — no more, no less.
// harness_test.go locates each bug by the marker substring on its line.
package metabuggy

import "sync"

// hhlint:atomic-counters
type stats struct {
	Hits int64
}

func bumpPlain(s *stats) {
	s.Hits++ // BUG(atomicstats): plain write
}

type sel int

type solver struct{ groups map[sel]bool }

func (s *solver) NewSelector() sel { return sel(len(s.groups)) }
func (s *solver) Release(v sel)    { delete(s.groups, v) }

func dropSelector(s *solver) {
	s.NewSelector() // BUG(selectorrelease): dropped result
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
