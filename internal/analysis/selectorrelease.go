package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The selectorrelease pass tracks selector (activation) literals from the
// incremental SAT backend. A selector allocated with NewSelector() guards a
// clause group; the solver only reclaims the group when the selector is
// Release()d, so a selector that is acquired and then forgotten pins dead
// clauses in its pooled solver for the rest of the Learn.
//
// Within one function body, a freshly acquired selector must, on every
// return path, have met one of:
//
//   - a Release(sel) call (a deferred Release covers all paths);
//   - an ownership escape: stored into a map/field/slice (some owner now
//     tracks it — e.g. pe.sels[id] = s, bySel[s] = p, append(sels, s)) or
//     sent on a channel;
//   - being returned itself (ownership transfers to the caller).
//
// Early `return err` paths between acquisition and the eventual
// Release/store are exactly the leaks this pass exists for. The analysis
// is per-function and textual: a return statement is covered only by
// events that precede it in source order.

// SelectorReleasePass returns the selectorrelease pass.
func SelectorReleasePass() *Pass {
	return &Pass{
		Name: "selectorrelease",
		Doc:  "acquired selector literals must be Released, stored, or returned on every path",
		Run:  runSelectorRelease,
	}
}

func runSelectorRelease(c *Context) {
	for _, file := range c.Pkg.Files {
		for _, unit := range funcUnits(file) {
			checkSelectorLeaks(c, unit)
		}
	}
}

type selAcq struct {
	obj types.Object
	pos token.Pos // acquisition site
	// cover holds source positions after which the selector is safe:
	// Release calls, ownership escapes. A deferred Release covers
	// everything (coverAll).
	cover    []token.Pos
	coverAll bool
}

func checkSelectorLeaks(c *Context, unit funcUnit) {
	var acqs []*selAcq
	byObj := make(map[types.Object]*selAcq)

	// Phase 1: find acquisitions `s := X.NewSelector()` (and flag results
	// dropped outright).
	walkUnit(unit.body, func(n ast.Node, parents []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || calleeName(call) != "NewSelector" {
			return true
		}
		if len(parents) == 0 {
			return true
		}
		switch p := parents[len(parents)-1].(type) {
		case *ast.ExprStmt:
			c.Reportf(call.Pos(), "NewSelector result dropped: the selector can never be Released")
		case *ast.AssignStmt:
			if len(p.Rhs) == 1 && ast.Unparen(p.Rhs[0]) == call && len(p.Lhs) == 1 {
				if id, ok := p.Lhs[0].(*ast.Ident); ok {
					if id.Name == "_" {
						c.Reportf(call.Pos(), "NewSelector result assigned to blank identifier: the selector can never be Released")
						return true
					}
					if obj := c.ObjectOf(id); obj != nil {
						a := &selAcq{obj: obj, pos: call.Pos()}
						acqs = append(acqs, a)
						byObj[obj] = a
					}
				}
			}
		}
		return true
	})
	if len(acqs) == 0 {
		return
	}

	// Phase 2: collect covering events (Release, escape) per selector.
	walkUnit(unit.body, func(n ast.Node, parents []ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			name := calleeName(t)
			if name == "Release" {
				for _, arg := range t.Args {
					if a := byObj[identObj(c, arg)]; a != nil {
						if inDefer(parents) {
							a.coverAll = true
						} else {
							a.cover = append(a.cover, t.End())
						}
					}
				}
			}
			if name == "append" {
				for _, arg := range t.Args[min(1, len(t.Args)):] {
					if a := byObj[identObj(c, arg)]; a != nil {
						a.cover = append(a.cover, t.End())
					}
				}
			}
		case *ast.AssignStmt:
			// Escapes: s stored via `container[k] = s`, `x.f = s`, or s
			// used as a map key on the LHS (`bySel[s] = p`).
			for _, rhs := range t.Rhs {
				if a := byObj[identObj(c, rhs)]; a != nil {
					for _, lhs := range t.Lhs {
						switch ast.Unparen(lhs).(type) {
						case *ast.IndexExpr, *ast.SelectorExpr:
							a.cover = append(a.cover, t.End())
						}
					}
				}
			}
			for _, lhs := range t.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if a := byObj[identObj(c, ix.Index)]; a != nil {
						a.cover = append(a.cover, t.End())
					}
				}
			}
		case *ast.SendStmt:
			if a := byObj[identObj(c, t.Value)]; a != nil {
				a.cover = append(a.cover, t.End())
			}
		}
		return true
	})

	coveredAt := func(a *selAcq, at token.Pos) bool {
		if a.coverAll {
			return true
		}
		for _, p := range a.cover {
			if p <= at {
				return true
			}
		}
		return false
	}

	// Phase 3: audit every return path after each acquisition.
	sawReturn := make(map[types.Object]bool)
	walkUnit(unit.body, func(n ast.Node, parents []ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, a := range acqs {
			if ret.Pos() < a.pos {
				continue // return before the selector exists
			}
			sawReturn[a.obj] = true
			returnsSel := false
			for _, r := range ret.Results {
				ast.Inspect(r, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && c.Pkg.Info.Uses[id] == a.obj {
						returnsSel = true
					}
					return true
				})
			}
			if returnsSel || coveredAt(a, ret.Pos()) {
				continue
			}
			c.Reportf(ret.Pos(), "return leaks selector %s acquired at %s (no Release, store, or hand-off on this path)",
				a.obj.Name(), c.Pkg.Fset.Position(a.pos))
		}
		return true
	})

	// Falling off the end of the body is a return path too.
	for _, a := range acqs {
		if !sawReturn[a.obj] && !coveredAt(a, unit.body.End()) {
			c.Reportf(a.pos, "selector %s is neither Released, stored, nor returned before the function ends", a.obj.Name())
		}
	}
}
