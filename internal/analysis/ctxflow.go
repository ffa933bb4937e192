package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ctxflow enforces the module's cancellation contract: a function that
// receives a context.Context must actually let that context interrupt it.
// Two violation shapes, both read off the ctx-bearing body itself:
//
//   - dropping the context: handing a ctx-accepting callee
//     context.Background() / context.TODO() instead of the caller's own
//     ctx severs the cancellation chain at that call;
//   - blocking without it: a channel send/receive or range over a channel,
//     a select with no ctx.Done case (a `default` case also unblocks),
//     sync.Cond.Wait or time.Sleep.
//
// A body includes its deferred and immediately invoked function literals,
// which run within its extent. A `go func` literal is its own body, checked
// against its own signature; any other literal escapes to an unknown
// context and is not checked. The pass is intra-procedural: a callee is
// checked at its own site, against its own signature.
//
// The serve layer threads one ctx from HTTP handler to job execution to
// solver, and a ctx-less sleep anywhere on that path turns graceful drain
// into a stall.

// CtxFlowPass returns the ctxflow pass.
func CtxFlowPass() *Pass {
	return &Pass{
		Name: "ctxflow",
		Doc:  "ctx-bearing functions must thread ctx to callees and not block without observing it",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(c *Context) {
	for _, file := range c.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := c.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				checkCtxBody(c, shortFunc(obj.FullName()), fd.Type, fd.Body)
			}
		}
	}
}

// checkCtxBody reports the ctxflow violations of one body. name labels the
// findings; the n-th `go func` literal of a body is named name·go<n>.
func checkCtxBody(c *Context, name string, ftype *ast.FuncType, body *ast.BlockStmt) {
	hasCtx := false
	for _, f := range ftype.Params.List {
		hasCtx = hasCtx || isContextType(c.TypeOf(f.Type))
	}
	// Findings name a whole line (column 1): the blocking statement, which
	// a line-scoped suppression waives. Two blocks on one line are one
	// finding.
	seen := map[int]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		tf := c.Pkg.Fset.File(pos)
		c.Reportf(tf.LineStart(tf.Line(pos)), format, args...)
	}
	block := func(pos token.Pos, op string) {
		if !hasCtx {
			return
		}
		if line := c.Pkg.Fset.Position(pos).Line; !seen[line] {
			seen[line] = true
			report(pos, "%s receives a ctx but blocks here without observing it (%s)", name, op)
		}
	}

	goSeq := 0
	inlined := map[*ast.FuncLit]bool{}
	commOps := map[ast.Node]bool{} // channel ops of select cases, judged with their select
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				goSeq++
				checkCtxBody(c, fmt.Sprintf("%s·go%d", name, goSeq), lit.Type, lit.Body)
				return false
			}
		case *ast.DeferStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				inlined[lit] = true
			}
		case *ast.FuncLit:
			return inlined[x]

		case *ast.SelectStmt:
			unblocks := false
			for _, cl := range x.Body.List {
				comm := cl.(*ast.CommClause)
				if comm.Comm == nil {
					unblocks = true // default
				}
				for _, op := range commChanOps(comm.Comm) {
					commOps[op] = true
					if recv, ok := op.(*ast.UnaryExpr); ok && isCtxDoneRecv(c, recv) {
						unblocks = true
					}
				}
			}
			if !unblocks {
				block(x.Pos(), "select with no ctx.Done case")
			}
		case *ast.SendStmt:
			if !commOps[x] {
				block(x.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !commOps[x] && !isCtxDoneRecv(c, x) {
				block(x.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if t := c.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					block(x.Pos(), "range over channel")
				}
			}

		case *ast.CallExpr:
			if lit, ok := x.Fun.(*ast.FuncLit); ok {
				inlined[lit] = true // immediately invoked
			}
			switch {
			case isPkgFuncCall(c, x, "time") && calleeName(x) == "Sleep":
				block(x.Pos(), "time.Sleep")
			case calleeName(x) == "Wait" && syncTypeName(c.TypeOf(calleeRecv(x))) == "Cond":
				block(x.Pos(), "sync.Cond.Wait")
			}
			if hasCtx && len(x.Args) > 0 {
				sig, ok := c.TypeOf(x.Fun).(*types.Signature)
				if ok && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type()) {
					if bg := backgroundCtxCall(c, x.Args[0]); bg != "" {
						report(x.Pos(), "%s receives a ctx but %s(context.%s(), …) drops the caller's ctx",
							name, types.ExprString(x.Fun), bg)
					}
				}
			}
		}
		return true
	})
}

// commChanOps extracts the channel operations of one select comm statement.
func commChanOps(s ast.Stmt) []ast.Node {
	var ops []ast.Node
	switch st := s.(type) {
	case *ast.SendStmt:
		ops = append(ops, st)
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(st.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			ops = append(ops, u)
		}
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				ops = append(ops, u)
			}
		}
	}
	return ops
}

// isCtxDoneRecv reports whether recv is `<-ctx.Done()` for a
// context.Context-typed ctx.
func isCtxDoneRecv(c *Context, recv *ast.UnaryExpr) bool {
	call, ok := ast.Unparen(recv.X).(*ast.CallExpr)
	if !ok || calleeName(call) != "Done" {
		return false
	}
	return isContextType(c.TypeOf(calleeRecv(call)))
}

// backgroundCtxCall reports "Background"/"TODO" when e is a direct
// context.Background()/context.TODO() call, else "".
func backgroundCtxCall(c *Context, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !isPkgFuncCall(c, call, "context") {
		return ""
	}
	if name := calleeName(call); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

// shortFunc strips the package path qualifier from a function's full name —
// "(*hhoudini/internal/serve.Server).Drain" → "(*serve.Server).Drain" —
// enough for a human, short enough for a diagnostic line.
func shortFunc(full string) string {
	i := strings.LastIndex(full, "/")
	if i < 0 {
		return full
	}
	tail := full[i+1:]
	switch {
	case strings.HasPrefix(full, "(*"):
		return "(*" + tail
	case strings.HasPrefix(full, "("):
		return "(" + tail
	}
	return tail
}
