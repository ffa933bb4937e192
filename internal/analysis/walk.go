package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// walk.go: small AST/type helpers shared by the domain passes. Everything
// here is deliberately simple — passes are intra-procedural and trade
// soundness-in-the-limit for precision on this codebase's idioms (the
// suppression mechanism covers the rest).

// funcUnit is one analyzable body: a FuncDecl or a FuncLit. Passes that
// reason about statement order, return paths or lock scopes analyze each
// unit independently (a closure has its own return paths and lock scope).
type funcUnit struct {
	name  string        // declared name, or "func literal"
	decl  *ast.FuncDecl // nil for literals
	ftype *ast.FuncType // signature (present for both decls and literals)
	body  *ast.BlockStmt
}

// funcUnits yields every function body in the file: each FuncDecl, and each
// FuncLit nested anywhere (including inside other functions).
func funcUnits(f *ast.File) []funcUnit {
	var units []funcUnit
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		units = append(units, funcUnit{name: fd.Name.Name, decl: fd, ftype: fd.Type, body: fd.Body})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
			units = append(units, funcUnit{name: "func literal", ftype: fl.Type, body: fl.Body})
		}
		return true
	})
	return units
}

// paramObjects returns the set of a unit's parameter objects (the values a
// caller injects — for lockscope, the function values an agent controls).
func paramObjects(c *Context, unit funcUnit) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if unit.ftype == nil || unit.ftype.Params == nil {
		return out
	}
	for _, fl := range unit.ftype.Params.List {
		for _, name := range fl.Names {
			if obj := c.Pkg.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// walkUnit traverses a function body in source order with a parent stack,
// NOT descending into nested function literals (each literal is its own
// funcUnit: it has its own return paths, lock scope and defer semantics).
// fn's return value controls descent, as with ast.Inspect.
func walkUnit(body *ast.BlockStmt, fn func(n ast.Node, parents []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// inDefer reports whether the parent chain passes through a DeferStmt
// (i.e. the node executes at function exit, not in statement order).
func inDefer(parents []ast.Node) bool {
	for _, p := range parents {
		if _, ok := p.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// calleeName returns the bare name of a call's callee: "F" for F(...) and
// x.F(...), "" when the callee is not an identifier or selector.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// calleeRecv returns the receiver expression of a method-style call
// (x in x.F(...)), or nil.
func calleeRecv(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// isPkgFuncCall reports whether call invokes a package-level function of
// the package with the given import path (e.g. "sync/atomic").
func isPkgFuncCall(c *Context, call *ast.CallExpr, pkgPath string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := c.ObjectOf(id).(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// callResultsIncludeError reports whether the call's static callee has at
// least one result of type error.
func callResultsIncludeError(c *Context, call *ast.CallExpr) bool {
	sig, ok := c.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// isCallbackCall reports whether the call goes through a function-typed
// value an agent can inject: a function-typed parameter of the current
// unit, a struct field of function type, or a package-level function
// variable. Calls through *local* closures are not callbacks — the
// function body itself controls what they do. These are the
// "agent-visible callback" sites the lockscope pass cares about.
func isCallbackCall(c *Context, call *ast.CallExpr, params map[types.Object]bool) bool {
	if _, ok := c.TypeOf(call.Fun).(*types.Signature); !ok {
		return false // conversion, builtin, or type error
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		v, isVar := c.ObjectOf(fn).(*types.Var)
		if !isVar {
			return false
		}
		// A package-level func variable called by its bare name inside its
		// own package is as replaceable as one called as pkg.F.
		return params[v] || v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
	case *ast.SelectorExpr:
		if s, ok := c.Pkg.Info.Selections[fn]; ok {
			return s.Kind() == types.FieldVal
		}
		// Qualified identifier pkg.F: a package-level func variable is
		// mutable, agent-visible state; a declared function is not.
		_, isVar := c.ObjectOf(fn.Sel).(*types.Var)
		return isVar
	}
	// Immediately invoked literals, call results, index expressions: calls
	// through values, but not through *named* state an agent can replace;
	// the pass keeps its focus on stored callbacks.
	return false
}

// isMethodCall reports whether the call is a genuine method invocation
// (x.M(...) resolved through a method selection), as opposed to a
// package-qualified function call like sort.Slice(...).
func isMethodCall(c *Context, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := c.Pkg.Info.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (after pointer
// dereference).
func isMutex(t types.Type) bool {
	name := syncTypeName(t)
	return name == "Mutex" || name == "RWMutex"
}

// syncTypeName returns Name when t is sync.Name (after pointer
// dereference), or "".
func syncTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return ""
	}
	return n.Obj().Name()
}

// containsLock reports whether a value of type t embeds a sync lock
// (directly, via struct fields, or via arrays) — i.e. copying the value
// copies a lock.
func containsLock(t types.Type) bool {
	return containsLockRec(t, make(map[types.Type]bool))
}

func containsLockRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if isMutex(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockRec(u.Elem(), seen)
	}
	return false
}

// docContains reports whether any of the given comment groups mentions the
// marker string (used for the `hhlint:panic-boundary` marker).
func docContains(marker string, docs ...*ast.CommentGroup) bool {
	for _, d := range docs {
		if d == nil {
			continue
		}
		for _, c := range d.List {
			if strings.Contains(c.Text, marker) {
				return true
			}
		}
	}
	return false
}
