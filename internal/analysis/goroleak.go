package analysis

import (
	"path/filepath"
	"sort"
)

// goroleak checks that every `go` statement whose target can run forever
// also has a way to stop: a goroutine whose body (transitively) contains an
// unbounded `for {}` loop must (transitively) reach a termination signal —
// a ctx observation (`<-ctx.Done()`, `ctx.Err()`, a select case on
// `ctx.Done()`), a channel receive that a closed done-channel unblocks, or
// a `WaitGroup.Done` marking structured completion. This is the property
// the serve tests check dynamically (goroutine-count deltas); here
// it is enforced structurally at lint time.
//
// Straight-line goroutines (no unbounded loop anywhere in their call
// closure) are exempt: they terminate by falling off the end. Loops with
// any condition or range clause are treated as bounded — the pass is
// biased toward precision, catching the `for { select {...} }` worker
// shape that forgot its ctx case, not proving termination.

// GoroLeakPass returns the goroleak pass.
func GoroLeakPass() *Pass {
	return &Pass{
		Name: "goroleak",
		Doc:  "spawned goroutines with unbounded loops must reach a termination signal",
		Run:  runGoroLeak,
	}
}

func runGoroLeak(ctx *Context) {
	// Module-global: spawn targets may live in other packages; run once.
	if ctx.Facts["goroleak.ran"] != nil {
		return
	}
	ctx.Facts["goroleak.ran"] = true
	sums := moduleSummaries(ctx)

	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fs := sums[k]
		for _, sp := range fs.Spawns {
			ts := sums[sp.Target]
			if ts == nil || ts.MayLoop == nil || ts.HasTerm {
				continue
			}
			loop := ts.MayLoop
			ctx.ReportAt(sp.File, sp.Line,
				"goroutine %s loops unboundedly (%s:%d) but reaches no termination signal (ctx, done channel, or WaitGroup.Done)",
				shortFunc(sp.Target), filepath.Base(loop.File), loop.Line)
		}
	}
}
