package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// callgraph.go builds the module-wide call graph the interprocedural passes
// (lockorder, ctxflow, goroleak) and the summary engine compose over.
//
// Nodes are the *declared* functions and methods of every loaded package,
// plus one anonymous node per `go func(){...}` literal (a spawned literal
// runs concurrently, so its facts must not be attributed to the spawning
// function's linear control flow). Every other function literal — deferred,
// immediately invoked, or stored — is inlined into its enclosing node at
// its lexical position, the same linear approximation the intra-procedural
// passes use.
//
// Edges are static only, biased toward precision:
//
//   - direct calls to package-level functions (same or imported module
//     package);
//   - method calls whose receiver's static type is concrete;
//   - interface method calls devirtualized when the receiver's concrete
//     type is locally evident (the variable is defined once in the same
//     body from a composite literal or its address);
//   - `go f(...)` and `defer f(...)` produce the same resolution, tagged
//     with the spawn/defer kind.
//
// Unresolvable callees (dynamic dispatch through stored function values,
// unexported interface plumbing, stdlib calls) produce no edge: the
// consuming passes treat a missing edge as "no facts", never as a finding.

// CallKind tags how an edge's call site executes.
type CallKind uint8

const (
	// KindCall is an ordinary synchronous call.
	KindCall CallKind = iota
	// KindGo is a `go` statement: the callee runs concurrently.
	KindGo
	// KindDefer is a `defer` statement: the callee runs at function exit.
	KindDefer
)

func (k CallKind) String() string {
	switch k {
	case KindGo:
		return "go"
	case KindDefer:
		return "defer"
	}
	return "call"
}

// CallEdge is one resolved call site.
type CallEdge struct {
	Caller *CGNode
	Callee *CGNode
	Kind   CallKind
	Pos    token.Pos
}

// CGNode is one analyzable function body: a declared function/method, or an
// anonymous `go func` literal.
type CGNode struct {
	// Key is the stable identity summaries are keyed by:
	// (*types.Func).FullName() for declarations (init functions are
	// disambiguated with #n), and "<enclosing>·go<n>" for the n-th spawned
	// literal inside the enclosing node.
	Key string
	// Fn is the declared function object (nil for spawned literals).
	Fn *types.Func
	// Pkg is the defining package.
	Pkg *Package
	// Decl/Lit carry the syntax: exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Out is the node's outgoing edges, in source order.
	Out []CallEdge
	// goBodies are the spawned-literal child nodes, in source order.
	goBodies []*CGNode
}

// Name returns a short human-readable name for diagnostics.
func (n *CGNode) Name() string { return shortFunc(n.Key) }

// Body returns the node's block statement.
func (n *CGNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the node's declaration position.
func (n *CGNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// CallGraph is the module-wide graph.
type CallGraph struct {
	// Nodes in deterministic order: package load order, then file/source
	// order within a package.
	Nodes []*CGNode
	// ByKey resolves a summary key back to its node.
	ByKey map[string]*CGNode

	byFn map[*types.Func]*CGNode
}

// NodeFor resolves a declared function object to its node (nil for
// functions outside the load, e.g. stdlib).
func (g *CallGraph) NodeFor(fn *types.Func) *CGNode { return g.byFn[fn] }

// BuildCallGraph constructs the graph over the loaded packages. pkgs must
// be in load order (dependencies first), as produced by LoadModule.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{ByKey: map[string]*CGNode{}, byFn: map[*types.Func]*CGNode{}}
	// First pass: create declaration nodes so cross-package edges resolve.
	for _, pkg := range pkgs {
		initSeq := 0
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				key := obj.FullName()
				if fd.Name.Name == "init" && fd.Recv == nil {
					initSeq++
					key = fmt.Sprintf("%s#%d", key, initSeq)
				}
				n := &CGNode{Key: key, Fn: obj, Pkg: pkg, Decl: fd}
				g.Nodes = append(g.Nodes, n)
				g.ByKey[key] = n
				g.byFn[obj] = n
			}
		}
	}
	// Second pass: edges and spawned-literal child nodes.
	for _, n := range append([]*CGNode(nil), g.Nodes...) {
		buildEdges(g, n)
	}
	return g
}

// buildEdges walks one node's body, resolving call sites and splitting off
// `go func` literals into child nodes (which are then walked themselves).
func buildEdges(g *CallGraph, n *CGNode) {
	goSeq := 0
	// handled marks go/defer call expressions already edged with their kind
	// tag, so the generic CallExpr case below does not re-add them as
	// ordinary calls when the walk descends into their argument lists.
	handled := map[*ast.CallExpr]bool{}
	// inlined marks function literals whose bodies execute within this
	// node's own dynamic extent — deferred literals and immediately invoked
	// ones. Literals that escape (stored in a variable, passed as a
	// callback) run in an unknown context, so their facts are not
	// attributed to the definer.
	inlined := map[*ast.FuncLit]bool{}
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(nd ast.Node) bool {
			switch stmt := nd.(type) {
			case *ast.FuncLit:
				return inlined[stmt]
			case *ast.GoStmt:
				// Spawned literal: a child node, walked independently.
				if lit, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
					goSeq++
					child := &CGNode{
						Key: fmt.Sprintf("%s·go%d", n.Key, goSeq),
						Pkg: n.Pkg,
						Lit: lit,
					}
					g.Nodes = append(g.Nodes, child)
					g.ByKey[child.Key] = child
					n.goBodies = append(n.goBodies, child)
					n.Out = append(n.Out, CallEdge{Caller: n, Callee: child, Kind: KindGo, Pos: stmt.Pos()})
					buildEdges(g, child)
					// Arguments to the literal still evaluate in the
					// caller; they rarely contain calls worth an edge, so
					// the subtree is handled entirely by the child walk.
					return false
				}
				handled[stmt.Call] = true
				if callee := resolveCallee(n, stmt.Call); callee != nil {
					if t := g.byFn[callee]; t != nil {
						n.Out = append(n.Out, CallEdge{Caller: n, Callee: t, Kind: KindGo, Pos: stmt.Pos()})
					}
				}
				return true
			case *ast.DeferStmt:
				handled[stmt.Call] = true
				if lit, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
					inlined[lit] = true
				}
				if callee := resolveCallee(n, stmt.Call); callee != nil {
					if t := g.byFn[callee]; t != nil {
						n.Out = append(n.Out, CallEdge{Caller: n, Callee: t, Kind: KindDefer, Pos: stmt.Pos()})
					}
				}
				return true
			case *ast.CallExpr:
				if lit, ok := stmt.Fun.(*ast.FuncLit); ok {
					inlined[lit] = true // immediately invoked
				}
				if handled[stmt] {
					return true
				}
				if callee := resolveCallee(n, stmt); callee != nil {
					if t := g.byFn[callee]; t != nil {
						n.Out = append(n.Out, CallEdge{Caller: n, Callee: t, Kind: KindCall, Pos: stmt.Pos()})
					}
				}
				return true
			}
			return true
		})
	}
	walk(n.Body())
}

// resolveCallee resolves a call expression to a declared function object,
// or nil when the callee is dynamic/external.
func resolveCallee(n *CGNode, call *ast.CallExpr) *types.Func {
	info := n.Pkg.Info
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			f, _ := sel.Obj().(*types.Func)
			if f == nil {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return devirtualize(n, fn.X, f)
			}
			return f
		}
		// Package-qualified function: pkg.F(...).
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok && f.Type() != nil {
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() == nil {
				return f
			}
		}
	}
	return nil
}

// devirtualize resolves an interface method call when the receiver's
// concrete type is locally evident: the receiver is an identifier defined
// exactly once in the enclosing body, from a composite literal T{...} or
// &T{...}. Anything less evident stays dynamic (no edge).
func devirtualize(n *CGNode, recv ast.Expr, ifaceMethod *types.Func) *types.Func {
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := n.Pkg.Info.Uses[id]
	if obj == nil {
		return nil
	}
	var concrete types.Type
	defs := 0
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if n.Pkg.Info.Defs[lid] != obj && n.Pkg.Info.Uses[lid] != obj {
				continue // a different variable (or not this one at all)
			}
			defs++
			if i >= len(as.Rhs) {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = ast.Unparen(u.X)
			}
			if _, ok := rhs.(*ast.CompositeLit); ok {
				concrete = n.Pkg.Info.TypeOf(as.Rhs[i])
			}
		}
		return true
	})
	if defs != 1 || concrete == nil {
		return nil
	}
	m, _, _ := types.LookupFieldOrMethod(concrete, true, ifaceMethod.Pkg(), ifaceMethod.Name())
	f, _ := m.(*types.Func)
	return f
}
