// Package analysis is hhlint's self-contained static-analysis framework:
// a stdlib-only (go/parser + go/types + go/importer, no external modules)
// pass runner that enforces the engine's concurrency and resource-ownership
// invariants at CI time.
//
// The paper's thesis — replace one monolithic check with many small,
// incremental, memoizable checks (H-Houdini §3) — applies to the codebase
// itself: each invariant the engine's correctness rests on (atomic-only
// Stats counters, released selectors, durable flush errors, lock scopes) is encoded as one cheap per-package pass, run
// over ./... on every `make ci`, so later work builds on mechanically
// enforced ownership rules instead of tribal knowledge.
//
// Architecture:
//
//   - load.go     parses and type-checks every package of this module using
//     only the standard library (a topological type-check with
//     importer "source" for stdlib dependencies);
//   - suppress.go implements `//hhlint:ignore <pass> <reason>` line-scoped
//     suppressions (a missing reason is itself a diagnostic);
//   - harness.go  is the golden-file test harness: testdata packages carry
//     `// want "regexp"` expectation comments and the harness
//     asserts the diagnostic set matches exactly;
//   - one file per domain pass (atomicstats.go, selectorrelease.go,
//     flusherr.go, lockscope.go, …).
//
// All passes are heuristic, intra-procedural, and deliberately biased
// toward precision: a finding should either be fixed or carry an
// `//hhlint:ignore` with a reason that documents why the invariant holds
// anyway.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Pass is one named invariant checker run over a single package.
type Pass struct {
	// Name is the short pass identifier used in diagnostics and in
	// `//hhlint:ignore <name> <reason>` suppressions.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects ctx.Pkg and reports findings via ctx.Reportf.
	Run func(ctx *Context)
}

// A Diagnostic is one finding: a position, the pass that produced it, and a
// human-readable message.
type Diagnostic struct {
	Pass string `json:"pass"`
	// File is the file path as recorded in the FileSet; Line/Col are
	// 1-based.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// String renders the conventional `file:line:col: [pass] message` form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Pass, d.Msg)
}

// Context is the per-(pass, package) view handed to Pass.Run.
type Context struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// All is every package of the load (the whole module for hhlint runs, a
	// single testdata package under the test harness). Passes that need
	// module-global facts — e.g. which struct types carry the
	// `hhlint:atomic-counters` annotation — scan All and memoize in Facts.
	All []*Package
	// Facts is a scratch memo shared by every (pass, package) pair of one
	// Run invocation. Keys are pass-prefixed strings; the runner is
	// sequential, so no locking is needed.
	Facts map[string]any

	pass  *Pass
	diags *[]Diagnostic
}

// Reportf records a finding at pos. Suppression filtering happens in the
// runner, not here.
func (c *Context) Reportf(pos token.Pos, format string, args ...any) {
	p := c.Pkg.Fset.Position(pos)
	*c.diags = append(*c.diags, Diagnostic{
		Pass: c.pass.Name,
		File: p.Filename,
		Line: p.Line,
		Col:  p.Column,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a finding at an explicit file/line (used by the
// interprocedural passes, whose facts may come from the disk memo rather
// than live AST positions). file must be the absolute path as the FileSet
// records it, so suppressions match.
func (c *Context) ReportAt(file string, line int, format string, args ...any) {
	*c.diags = append(*c.diags, Diagnostic{
		Pass: c.pass.Name,
		File: file,
		Line: line,
		Col:  1,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a shorthand for the package's types.Info.TypeOf.
func (c *Context) TypeOf(e ast.Expr) types.Type { return c.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its types.Object (Uses then Defs).
func (c *Context) ObjectOf(id *ast.Ident) types.Object {
	if o := c.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return c.Pkg.Info.Defs[id]
}

// DefaultPasses returns every registered domain pass, ordered by name.
func DefaultPasses() []*Pass {
	ps := []*Pass{
		AtomicStatsPass(),
		ClauseRingPass(),
		CtxFlowPass(),
		FlushErrPass(),
		GoroLeakPass(),
		LockOrderPass(),
		LockScopePass(),
		PanicScopePass(),
		SelectorReleasePass(),
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// Facts keys under which the runner publishes the interprocedural layer to
// passes (lockorder, ctxflow, goroleak read these instead of rebuilding).
const (
	factGraph     = "module.graph"
	factSummaries = "module.summaries"
)

// RunOptions configures the interprocedural layer of a Run.
type RunOptions struct {
	// ModuleRoot anchors relative paths in summaries and diagnostics; when
	// empty, the first package's directory is used.
	ModuleRoot string
	// SummaryFile is the on-disk memo path ("" disables the memo: summaries
	// are computed cold and not persisted — the harness mode).
	SummaryFile string
}

// RunStats reports memo effectiveness for one Run (hhlint -v and the CI
// warm/cold self-check read these).
type RunStats struct {
	PkgTotal  int
	PkgHits   int
	FuncTotal int
	FuncHits  int
}

// Run executes every pass over every package and returns the surviving
// diagnostics (suppressions applied, malformed suppressions reported) in
// deterministic file/line/col/pass order.
func Run(pkgs []*Package, passes []*Pass) []Diagnostic {
	diags, _ := RunOpts(pkgs, passes, nil)
	return diags
}

// RunOpts is Run with interprocedural options and memo statistics.
func RunOpts(pkgs []*Package, passes []*Pass, opts *RunOptions) ([]Diagnostic, RunStats) {
	known := make(map[string]bool, len(passes))
	for _, p := range passes {
		known[p.Name] = true
	}

	// Build the interprocedural layer once per Run: the call graph over the
	// whole load, then the summary table (memoized on disk when a summary
	// file is configured). Passes consume both through Facts.
	root := ""
	memoPath := ""
	if opts != nil {
		root = opts.ModuleRoot
		memoPath = opts.SummaryFile
	}
	if root == "" && len(pkgs) > 0 {
		root = pkgs[0].Dir
	}
	graph := BuildCallGraph(pkgs)
	summaries := BuildSummaries(pkgs, graph, root, memoPath)
	stats := RunStats{
		PkgTotal:  summaries.PkgTotal,
		PkgHits:   summaries.PkgHits,
		FuncTotal: summaries.FuncTotal,
		FuncHits:  summaries.FuncHits,
	}

	var raw []Diagnostic
	facts := make(map[string]any)
	facts[factGraph] = graph
	facts[factSummaries] = summaries
	for _, pass := range passes {
		for _, pkg := range pkgs {
			ctx := &Context{Pkg: pkg, All: pkgs, Facts: facts, pass: pass, diags: &raw}
			pass.Run(ctx)
		}
	}
	sup := collectSuppressions(pkgs, known)
	out := append([]Diagnostic(nil), sup.malformed...)
	for _, d := range raw {
		if !sup.matches(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
	return out, stats
}

// moduleGraph retrieves the call graph the runner published to Facts.
func moduleGraph(ctx *Context) *CallGraph {
	g, _ := ctx.Facts[factGraph].(*CallGraph)
	return g
}

// moduleSummaries retrieves the summary table the runner published.
func moduleSummaries(ctx *Context) *SummarySet {
	s, _ := ctx.Facts[factSummaries].(*SummarySet)
	return s
}
