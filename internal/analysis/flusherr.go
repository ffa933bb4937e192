package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// The flusherr pass guards the crash-safe persistence path: inside the
// durability-critical scope (package internal/proofdb, the persistence
// wiring in persist.go, and any package whose name contains "flusherr" —
// the pass's own testdata), an error returned by a flush-family function
// (Flush, Close, Sync, Fsync, Rename) must not be discarded. A dropped
// fsync error is precisely how "crash-safe" stores silently stop being
// crash-safe (cf. the fsyncgate postmortems): once the kernel reports the
// error it may clear the dirty state, so the only correct reactions are to
// propagate, retry from scratch, or consciously document best-effort
// semantics with an //hhlint:ignore reason.
//
// Flagged forms:
//
//	f.Close()            // bare call as a statement
//	defer f.Close()      // deferred, error unobservable
//	go f.Flush()         // goroutine, error unobservable
//	_ = f.Sync()         // explicitly discarded
//
// Only callees that actually return an error are flagged.

// FlushErrPass returns the flusherr pass.
func FlushErrPass() *Pass {
	return &Pass{
		Name: "flusherr",
		Doc:  "flush/close/sync/rename errors in the persistence scope must be handled",
		Run:  runFlushErr,
	}
}

var flushFamily = map[string]bool{
	"Flush":  true,
	"Close":  true,
	"Sync":   true,
	"Fsync":  true,
	"Rename": true,
}

// inFlushScope decides whether a file participates in the durability scope.
func inFlushScope(pkgPath, fileName string) bool {
	if strings.Contains(pkgPath, "proofdb") || strings.Contains(pkgPath, "flusherr") {
		return true
	}
	return filepath.Base(fileName) == "persist.go"
}

func runFlushErr(c *Context) {
	for _, file := range c.Pkg.Files {
		name := c.Pkg.Fset.Position(file.Pos()).Filename
		if !inFlushScope(c.Pkg.Path, name) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call := flushCall(c, st.X); call != nil {
					c.Reportf(call.Pos(), "discarded error from %s (durable-path errors must be handled, or suppressed with a reason)", calleeName(call))
				}
			case *ast.DeferStmt:
				if call := flushCall(c, st.Call); call != nil {
					c.Reportf(call.Pos(), "deferred %s discards its error (capture it in a named return or check explicitly)", calleeName(call))
				}
			case *ast.GoStmt:
				if call := flushCall(c, st.Call); call != nil {
					c.Reportf(call.Pos(), "go %s discards its error (the goroutine must observe and report it)", calleeName(call))
				}
			case *ast.AssignStmt:
				// `_ = f()` and `v, _ := f()` forms where a blank identifier
				// swallows the (sole) result set of a flush-family call.
				if len(st.Rhs) != 1 {
					return true
				}
				call := flushCall(c, st.Rhs[0])
				if call == nil {
					return true
				}
				allBlank := true
				for _, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name != "_" {
						allBlank = false
					}
				}
				if allBlank {
					c.Reportf(call.Pos(), "error from %s assigned to blank identifier in durable path", calleeName(call))
				}
			}
			return true
		})
	}
}

// flushCall returns e as a flush-family call that returns an error, or nil.
func flushCall(c *Context, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if !flushFamily[calleeName(call)] {
		return nil
	}
	if !callResultsIncludeError(c, call) {
		return nil
	}
	return call
}
