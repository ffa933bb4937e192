package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// summary.go is the interprocedural engine: one FuncSummary per call-graph
// node, computed bottom-up over strongly connected components on every
// run (milliseconds for the whole module, next to seconds to load it).
//
// A summary has two layers:
//
//   - direct facts read off the node's own body (locks acquired/released
//     in linear order, calls made while holding locks, blocking operations
//     on context-less paths, goroutine termination signals, spawned
//     goroutines);
//   - transitive facts composed from callee summaries over the call graph
//     (every lock the function may acquire, whether a blocking operation
//     is reachable with no context to observe, whether a termination
//     signal is reachable, whether an unbounded loop is reachable), with a
//     witness chain preserved for diagnostics.
//
// File fields hold the file name as the FileSet records it, which is what
// suppression matching compares against.

// LockSite is one direct lock acquisition.
type LockSite struct {
	Lock string
	File string
	Line int
}

// TransAcq is one lock in the transitive-acquisition closure, with the
// callee chain that reaches it.
type TransAcq struct {
	Lock string
	File string
	Line int
	Via  []string
}

// LockEdge is one directly observed ordered pair: Acq was acquired while
// Held was held.
type LockEdge struct {
	Held string
	Acq  string
	File string
	Line int
}

// HeldCall is a resolved call made while holding locks.
type HeldCall struct {
	Callee string
	Held   []string
	File   string
	Line   int
}

// SpawnSite is one `go` statement with a resolved target.
type SpawnSite struct {
	Target string
	File   string
	Line   int
}

// BlockSite is one direct blocking operation (or other positioned fact).
type BlockSite struct {
	Op   string
	File string
	Line int
}

// Witness is a transitive fact with the callee chain that established it.
type Witness struct {
	Op   string
	File string
	Line int
	Via  []string
}

// FuncSummary is the per-function fact record.
type FuncSummary struct {
	Key    string
	HasCtx bool

	// Direct facts.
	Acquires  []LockSite
	LockEdges []LockEdge
	HeldCalls []HeldCall
	Calls     []string
	Spawns    []SpawnSite
	Blocks    []BlockSite
	CtxDrops  []BlockSite
	TermSig   string     // "ctx" | "wg" | "chan" | ""
	Loop      *BlockSite // first unbounded `for {}` loop

	// Transitive closure.
	TransAcquires []TransAcq
	BlocksNoCtx   *Witness
	HasTerm       bool
	MayLoop       *Witness
}

// BuildSummaries computes the summary table, keyed by node key, for every
// node of g: direct facts first, then the transitive closure callee-first.
// Tarjan emits SCCs in reverse topological order of the condensation, so
// each popped component sees final callee facts; mutual recursion inside a
// component iterates to a fixpoint.
func BuildSummaries(g *CallGraph) map[string]*FuncSummary {
	sums := make(map[string]*FuncSummary, len(g.Nodes))
	for _, n := range g.Nodes {
		sums[n.Key] = directFacts(n, g)
	}
	for _, scc := range tarjanSCC(g.Nodes, func(n *CGNode) []*CGNode {
		var out []*CGNode
		for _, e := range n.Out {
			if e.Kind != KindGo {
				out = append(out, e.Callee)
			}
		}
		return out
	}) {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if composeTransitive(sums[n.Key], sums) {
					changed = true
				}
			}
		}
	}
	return sums
}

// composeTransitive folds callee closures into fs, reporting whether
// anything changed (the SCC fixpoint condition).
func composeTransitive(fs *FuncSummary, all map[string]*FuncSummary) bool {
	changed := false

	// Seed the lock closure with the direct acquisitions.
	have := map[string]bool{}
	for _, ta := range fs.TransAcquires {
		have[ta.Lock] = true
	}
	for _, a := range fs.Acquires {
		if !have[a.Lock] {
			fs.TransAcquires = append(fs.TransAcquires, TransAcq{Lock: a.Lock, File: a.File, Line: a.Line})
			have[a.Lock] = true
			changed = true
		}
	}
	for _, callee := range fs.Calls {
		cs := all[callee]
		if cs == nil {
			continue
		}
		for _, ta := range cs.TransAcquires {
			if have[ta.Lock] {
				continue
			}
			via := append([]string{callee}, ta.Via...)
			if len(via) > 6 {
				via = via[:6] // cap witness depth; the head is what matters
			}
			fs.TransAcquires = append(fs.TransAcquires, TransAcq{Lock: ta.Lock, File: ta.File, Line: ta.Line, Via: via})
			have[ta.Lock] = true
			changed = true
		}
		// A context-less blocking path through a callee. Callees that take
		// a context account for their own blocking at their own report
		// sites, so the chain stops there.
		if fs.BlocksNoCtx == nil && !fs.HasCtx && cs.BlocksNoCtx != nil {
			via := append([]string{callee}, cs.BlocksNoCtx.Via...)
			if len(via) > 6 {
				via = via[:6]
			}
			fs.BlocksNoCtx = &Witness{Op: cs.BlocksNoCtx.Op, File: cs.BlocksNoCtx.File, Line: cs.BlocksNoCtx.Line, Via: via}
			changed = true
		}
		if !fs.HasTerm && cs.HasTerm {
			fs.HasTerm = true
			changed = true
		}
		if fs.MayLoop == nil && cs.MayLoop != nil {
			via := append([]string{callee}, cs.MayLoop.Via...)
			if len(via) > 6 {
				via = via[:6]
			}
			fs.MayLoop = &Witness{Op: cs.MayLoop.Op, File: cs.MayLoop.File, Line: cs.MayLoop.Line, Via: via}
			changed = true
		}
	}
	if fs.BlocksNoCtx == nil && !fs.HasCtx && len(fs.Blocks) > 0 {
		b := fs.Blocks[0]
		fs.BlocksNoCtx = &Witness{Op: b.Op, File: b.File, Line: b.Line}
		changed = true
	}
	if !fs.HasTerm && fs.TermSig != "" {
		fs.HasTerm = true
		changed = true
	}
	if fs.MayLoop == nil && fs.Loop != nil {
		fs.MayLoop = &Witness{Op: fs.Loop.Op, File: fs.Loop.File, Line: fs.Loop.Line}
		changed = true
	}
	return changed
}

// tarjanSCC computes strongly connected components over nodes, emitted in
// reverse topological order of the condensation (every component before
// its callers).
func tarjanSCC(nodes []*CGNode, succ func(*CGNode) []*CGNode) [][]*CGNode {
	index := map[*CGNode]int{}
	low := map[*CGNode]int{}
	onStack := map[*CGNode]bool{}
	var stack []*CGNode
	var sccs [][]*CGNode
	next := 0

	var strong func(n *CGNode)
	strong = func(n *CGNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range succ(n) {
			if _, seen := index[m]; !seen {
				strong(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []*CGNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return sccs
}

// --- Direct-fact extraction ---------------------------------------------------

// directFacts scans one node's body (go-spawned literals and escaping
// closures excluded — they are their own nodes or unknown contexts).
func directFacts(n *CGNode, g *CallGraph) *FuncSummary {
	fs := &FuncSummary{Key: n.Key, HasCtx: nodeHasCtx(n)}
	posOf := func(p token.Pos) (string, int) {
		posn := n.Pkg.Fset.Position(p)
		return posn.Filename, posn.Line
	}

	// Calls and spawns come straight off the graph edges.
	for _, e := range n.Out {
		file, line := posOf(e.Pos)
		switch e.Kind {
		case KindGo:
			fs.Spawns = append(fs.Spawns, SpawnSite{Target: e.Callee.Key, File: file, Line: line})
		default:
			fs.Calls = append(fs.Calls, e.Callee.Key)
		}
	}
	sort.Strings(fs.Calls)
	fs.Calls = dedupStrings(fs.Calls)

	held := map[string]bool{}
	heldList := func() []string {
		out := make([]string, 0, len(held))
		for k := range held {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	acquired := map[string]bool{}
	termCtx, termWG, termChan := false, false, false

	// selectInfo caches per-select classification; commExprs marks channel
	// operations that belong to a select's comm clauses (accounted at the
	// select level, not individually).
	guardedSelect := map[*ast.SelectStmt]bool{}
	commOps := map[ast.Node]bool{}

	walkNodeBody(n, func(nd ast.Node, parents []ast.Node) bool {
		switch x := nd.(type) {
		case *ast.SelectStmt:
			guarded, hasDefault := false, false
			for _, cl := range x.Body.List {
				comm, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				if comm.Comm == nil {
					hasDefault = true
					continue
				}
				for _, op := range commChanOps(comm.Comm) {
					commOps[op] = true
					if recv, ok := op.(*ast.UnaryExpr); ok {
						if isCtxDoneRecv(n.Pkg, recv) {
							guarded = true
							termCtx = true
						} else {
							termChan = true
						}
					}
				}
			}
			guardedSelect[x] = guarded || hasDefault
			if !guarded && !hasDefault {
				file, line := posOf(x.Pos())
				fs.Blocks = append(fs.Blocks, BlockSite{Op: "select with no ctx.Done case", File: file, Line: line})
			}
			return true

		case *ast.SendStmt:
			if !commOps[x] {
				file, line := posOf(x.Pos())
				fs.Blocks = append(fs.Blocks, BlockSite{Op: "channel send", File: file, Line: line})
			}
			return true

		case *ast.UnaryExpr:
			if x.Op != token.ARROW || commOps[x] {
				return true
			}
			if isCtxDoneRecv(n.Pkg, x) {
				termCtx = true
				return true
			}
			termChan = true
			file, line := posOf(x.Pos())
			fs.Blocks = append(fs.Blocks, BlockSite{Op: "channel receive", File: file, Line: line})
			return true

		case *ast.RangeStmt:
			if t := n.Pkg.Info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					termChan = true
					file, line := posOf(x.Pos())
					fs.Blocks = append(fs.Blocks, BlockSite{Op: "range over channel", File: file, Line: line})
				}
			}
			return true

		case *ast.ForStmt:
			if x.Init == nil && x.Cond == nil && x.Post == nil && fs.Loop == nil {
				file, line := posOf(x.Pos())
				fs.Loop = &BlockSite{Op: "for {} loop", File: file, Line: line}
			}
			return true

		case *ast.CallExpr:
			fileOf := func() (string, int) { return posOf(x.Pos()) }

			// Lock-state transitions (incl. methods promoted from an
			// embedded mutex).
			if class, op, ok := lockOp(n.Pkg, x); ok {
				if class == "" {
					return true // local mutex: no cross-function order
				}
				switch op {
				case "Lock", "RLock":
					file, line := fileOf()
					for _, h := range heldList() {
						if h != class {
							fs.LockEdges = append(fs.LockEdges, LockEdge{Held: h, Acq: class, File: file, Line: line})
						}
					}
					if !acquired[class] {
						acquired[class] = true
						fs.Acquires = append(fs.Acquires, LockSite{Lock: class, File: file, Line: line})
					}
					held[class] = true
				case "Unlock", "RUnlock":
					if !inDefer(parents) {
						delete(held, class)
					}
				}
				return true
			}

			// Blocking / termination stdlib calls.
			switch stdlibCallKind(n.Pkg, x) {
			case "time.Sleep":
				file, line := fileOf()
				fs.Blocks = append(fs.Blocks, BlockSite{Op: "time.Sleep", File: file, Line: line})
			case "cond.Wait":
				file, line := fileOf()
				fs.Blocks = append(fs.Blocks, BlockSite{Op: "sync.Cond.Wait", File: file, Line: line})
			case "wg.Done":
				termWG = true
			case "ctx.Done", "ctx.Err":
				termCtx = true
			}

			// Dropped context: a context-bearing function handing a callee
			// context.Background()/TODO() instead of its own ctx.
			if fs.HasCtx && len(x.Args) > 0 {
				if sig, ok := n.Pkg.Info.TypeOf(x.Fun).(*types.Signature); ok &&
					sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type()) {
					if bg := backgroundCtxCall(n.Pkg, x.Args[0]); bg != "" {
						file, line := fileOf()
						fs.CtxDrops = append(fs.CtxDrops, BlockSite{
							Op:   fmt.Sprintf("%s(context.%s(), …) drops the caller's ctx", callLabel(x), bg),
							File: file, Line: line,
						})
					}
				}
			}

			// Calls made while holding a lock.
			if len(held) > 0 {
				if callee := resolveCallee(n, x); callee != nil {
					if t := g.NodeFor(callee); t != nil {
						file, line := fileOf()
						fs.HeldCalls = append(fs.HeldCalls, HeldCall{Callee: t.Key, Held: heldList(), File: file, Line: line})
					}
				}
			}
			return true
		}
		return true
	})

	switch {
	case termCtx:
		fs.TermSig = "ctx"
	case termWG:
		fs.TermSig = "wg"
	case termChan:
		fs.TermSig = "chan"
	}
	return fs
}

// walkNodeBody traverses a node's body in source order with a parent
// stack, skipping go-spawned literals (their own nodes) and escaping
// literals (unknown execution context); deferred and immediately invoked
// literals are descended into.
func walkNodeBody(n *CGNode, fn func(nd ast.Node, parents []ast.Node) bool) {
	inlined := map[*ast.FuncLit]bool{}
	var stack []ast.Node
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		if nd == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch x := nd.(type) {
		case *ast.GoStmt:
			if _, ok := x.Call.Fun.(*ast.FuncLit); ok {
				// Spawned literal: its body is a child node. The spawn
				// itself is already in fs.Spawns via the graph.
				return false
			}
		case *ast.DeferStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				inlined[lit] = true
			}
		case *ast.CallExpr:
			if lit, ok := x.Fun.(*ast.FuncLit); ok {
				inlined[lit] = true
			}
		case *ast.FuncLit:
			if !inlined[x] {
				return false
			}
		}
		if !fn(nd, stack) {
			return false
		}
		stack = append(stack, nd)
		return true
	})
}

// nodeHasCtx reports whether the node's signature takes a context.Context
// parameter.
func nodeHasCtx(n *CGNode) bool {
	var sig *types.Signature
	if n.Fn != nil {
		sig, _ = n.Fn.Type().(*types.Signature)
	} else if t := n.Pkg.Info.TypeOf(n.Lit); t != nil {
		sig, _ = t.(*types.Signature)
	}
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
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
func isCtxDoneRecv(pkg *Package, recv *ast.UnaryExpr) bool {
	call, ok := ast.Unparen(recv.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return isContextType(pkg.Info.TypeOf(sel.X))
}

// stdlibCallKind classifies the blocking / termination-signal stdlib calls
// the summary engine cares about.
func stdlibCallKind(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	// Package-qualified: time.Sleep.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() == "time" && name == "Sleep" {
				return "time.Sleep"
			}
			return ""
		}
	}
	// Methods: resolve the receiver's type.
	recvT := pkg.Info.TypeOf(sel.X)
	switch {
	case name == "Wait" && isSyncType(recvT, "Cond"):
		return "cond.Wait"
	case name == "Done" && isSyncType(recvT, "WaitGroup"):
		return "wg.Done"
	case name == "Done" && isContextType(recvT):
		return "ctx.Done"
	case name == "Err" && isContextType(recvT):
		return "ctx.Err"
	}
	return ""
}

// isSyncType reports whether t is sync.<name> (after pointer deref).
func isSyncType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// backgroundCtxCall reports "Background"/"TODO" when e is a direct
// context.Background()/context.TODO() call, else "".
func backgroundCtxCall(pkg *Package, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "context" {
		return ""
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name
	}
	return ""
}

// callLabel renders a short source-ish label for a call's callee.
func callLabel(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}

// lockOp classifies call as a mutex Lock/RLock/Unlock/RUnlock, returning
// the lock class ("" for locks with no cross-function identity, e.g.
// local variables) and the operation name. The class abstracts instances
// to their declaration site: "pkg.Type.field" for a mutex struct field,
// "pkg.Type" for a type with an embedded mutex, "pkg.var" for a
// package-level mutex variable.
func lockOp(pkg *Package, call *ast.CallExpr) (class, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	s, isMethod := pkg.Info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return "", "", false
	}
	m, _ := s.Obj().(*types.Func)
	if m == nil || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", "", false
	}
	return lockClass(pkg, sel.X), op, true
}

// lockClass names the lock an expression denotes, abstracted to its
// declaration site.
func lockClass(pkg *Package, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	t := pkg.Info.TypeOf(expr)
	if mutexKind(t) == "" {
		// Promoted method from an embedded mutex: classify by the outer
		// named type.
		if name := namedTypeName(t); name != "" {
			return name
		}
		return ""
	}
	switch x := expr.(type) {
	case *ast.SelectorExpr:
		// A mutex struct field: owner type + field name.
		if owner := namedTypeName(pkg.Info.TypeOf(x.X)); owner != "" {
			return owner + "." + x.Sel.Name
		}
		// Package-qualified variable: pkg.Mu.
		if id, ok := x.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() + "." + x.Sel.Name
			}
		}
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return "" // locals and anonymous shapes: no stable identity
}

// namedTypeName renders a type's "pkgpath.Name" (after pointer deref), or
// "" for unnamed types.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

func dedupStrings(in []string) []string {
	out := in[:0]
	var prev string
	for i, s := range in {
		if i == 0 || s != prev {
			out = append(out, s)
		}
		prev = s
	}
	return out
}
