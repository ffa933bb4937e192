// Package analysis is hhlint's self-contained static-analysis framework:
// a stdlib-only (go/parser + go/types + go/importer, no external modules,
// plus the go command it runs under) pass runner that enforces the engine's
// concurrency and resource-ownership invariants at CI time.
//
// The paper's thesis — replace one monolithic check with many small,
// local checks (H-Houdini §3) — applies to the codebase itself: each
// invariant the engine's correctness rests on (durable flush errors, lock
// scopes, context threading, a single panic boundary) is encoded as one
// cheap pass, run over ./... on every `make ci`, so later work builds on
// mechanically enforced ownership rules instead of tribal knowledge.
//
// Architecture:
//
//   - load.go      parses and type-checks every package of this module
//     from source, in the dependency-first order and with the file lists
//     of one `go list -deps -export` call; every other import is read
//     from the export data that call compiled;
//   - suppress.go  implements `//hhlint:ignore <pass> <reason>` line-scoped
//     suppressions (a missing reason is itself a diagnostic);
//   - harness.go   is the golden-file test harness: testdata packages
//     carry `// want "regexp"` expectation comments and the harness
//     asserts the diagnostic set matches exactly;
//   - one file per domain pass (ctxflow.go, flusherr.go, lockscope.go,
//     panicscope.go).
//
// Every pass is per-package and intra-procedural. All are heuristic and
// deliberately biased toward precision: a finding should either be fixed
// or carry an `//hhlint:ignore` with a reason that documents why the
// invariant holds anyway.
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
	Pass string
	// File is the file path as recorded in the FileSet; Line/Col are
	// 1-based.
	File string
	Line int
	Col  int
	Msg  string
}

// String renders the conventional `file:line:col: [pass] message` form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Pass, d.Msg)
}

// Context is the per-(pass, package) view handed to Pass.Run.
type Context struct {
	// Pkg is the package under analysis.
	Pkg *Package

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
		CtxFlowPass(),
		FlushErrPass(),
		LockScopePass(),
		PanicScopePass(),
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// Run executes every pass over every package and returns the surviving
// diagnostics (suppressions applied, malformed suppressions reported) in
// deterministic file/line/col/pass order.
func Run(pkgs []*Package, passes []*Pass) []Diagnostic {
	known := make(map[string]bool, len(passes))
	for _, p := range passes {
		known[p.Name] = true
	}

	var raw []Diagnostic
	for _, pass := range passes {
		for _, pkg := range pkgs {
			ctx := &Context{Pkg: pkg, pass: pass, diags: &raw}
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
	return out
}
