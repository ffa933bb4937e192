package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// ctxflow enforces the module's cancellation contract interprocedurally: a
// function that receives a context.Context must actually let that context
// interrupt it. Two violation shapes, both read off the summaries:
//
//   - dropping the context: handing a ctx-accepting callee
//     context.Background() / context.TODO() instead of the caller's own
//     ctx severs the cancellation chain at that call;
//   - blocking without it: reaching a blocking operation — channel
//     send/receive, select with no ctx.Done case (a `default` case also
//     unblocks), sync.Cond.Wait, time.Sleep — either directly in the
//     ctx-bearing body or through a chain of ctx-less callees. A callee
//     that itself takes a context is the end of the caller's
//     responsibility: its own body is checked at its own site.
//
// This extends the servectx fixture's single-handler shape to the whole
// module: PR 8's serve layer threads one ctx from HTTP handler to job
// execution to solver, and a ctx-less sleep anywhere on that path turns
// graceful drain into a stall.

// CtxFlowPass returns the ctxflow pass.
func CtxFlowPass() *Pass {
	return &Pass{
		Name: "ctxflow",
		Doc:  "ctx-bearing functions must thread ctx to callees and not block on ctx-less paths",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(ctx *Context) {
	// Module-global: summaries span the load; run once per Run.
	if ctx.Facts["ctxflow.ran"] != nil {
		return
	}
	ctx.Facts["ctxflow.ran"] = true
	sums := moduleSummaries(ctx)

	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// reported dedups (site, caller) pairs: several call edges from one
	// ctx-bearing function into the same blocking chain collapse to one
	// finding.
	reported := map[string]bool{}
	for _, k := range keys {
		fs := sums[k]
		if !fs.HasCtx {
			continue
		}
		for _, drop := range fs.CtxDrops {
			ctx.ReportAt(drop.File, drop.Line,
				"%s receives a ctx but %s", shortFunc(k), drop.Op)
		}
		// Direct blocking operations in the ctx-bearing body itself.
		for _, b := range fs.Blocks {
			key := fmt.Sprintf("%s\x00%s\x00%d", k, b.File, b.Line)
			if reported[key] {
				continue
			}
			reported[key] = true
			ctx.ReportAt(b.File, b.Line,
				"%s receives a ctx but blocks here without observing it (%s)", shortFunc(k), b.Op)
		}
		// Blocking reached through ctx-less callees.
		for _, callee := range fs.Calls {
			cs := sums[callee]
			if cs == nil || cs.BlocksNoCtx == nil {
				continue
			}
			w := cs.BlocksNoCtx
			key := fmt.Sprintf("%s\x00%s\x00%d", k, w.File, w.Line)
			if reported[key] {
				continue
			}
			reported[key] = true
			chain := append([]string{callee}, w.Via...)
			short := make([]string, len(chain))
			for i, c := range chain {
				short[i] = shortFunc(c)
			}
			ctx.ReportAt(w.File, w.Line,
				"%s receives a ctx but reaches this blocking %s through ctx-less path %s",
				shortFunc(k), w.Op, strings.Join(short, " -> "))
		}
	}
}

// shortFunc strips the package path qualifier from a summary key —
// "(*hhoudini/internal/serve.Server).Drain" → "(*serve.Server).Drain" —
// enough for a human, short enough for a diagnostic line.
func shortFunc(key string) string {
	i := strings.LastIndex(key, "/")
	if i < 0 {
		return key
	}
	tail := key[i+1:]
	switch {
	case strings.HasPrefix(key, "(*"):
		return "(*" + tail
	case strings.HasPrefix(key, "("):
		return "(" + tail
	}
	return tail
}
