package analysis

import (
	"sort"
	"strings"
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
	set := moduleSummaries(ctx)
	if set == nil {
		return
	}

	keys := make([]string, 0, len(set.Funcs))
	for k := range set.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fs := set.Funcs[k]
		for _, sp := range fs.Spawns {
			ts := set.Funcs[sp.Target]
			if ts == nil || ts.MayLoop == nil || ts.HasTerm {
				continue
			}
			loop := ts.MayLoop
			where := loop.File
			if i := strings.LastIndex(where, "/"); i >= 0 {
				where = where[i+1:]
			}
			ctx.ReportAt(set.AbsPath(sp.File), sp.Line,
				"goroutine %s loops unboundedly (%s:%d) but reaches no termination signal (ctx, done channel, or WaitGroup.Done)",
				shortFunc(sp.Target), where, loop.Line)
		}
	}
}
