package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The lockscope pass enforces two lock-hygiene invariants:
//
//  1. No callbacks under a lock. Between x.Lock()/x.RLock() and the
//     matching Unlock (linearly approximated in source order; a deferred
//     Unlock holds to function end), the engine must not call out into
//     agent-visible code: calls through function-typed values (struct
//     fields, variables, parameters — e.g. a user-supplied clock or drop
//     hook) and calls to oracle/re-entry methods (Learn, Mine, Slice,
//     Eval, Encode, Verify) are flagged. Such calls can re-enter the
//     engine and deadlock on the very lock being held, or invert lock
//     order with agent-held locks. Functions whose name ends in "Locked"
//     follow this codebase's convention of being called with the lock
//     already held, so the same rule applies throughout their bodies.
//
//  2. No locks copied by value. A parameter, result or receiver whose type
//     contains a sync.Mutex/RWMutex by value copies the lock state,
//     silently splitting one critical section into two. (go vet's
//     copylocks catches general copies; this pass closes the
//     signature-level cases early and in the same report.)
//
// The linear approximation of (1) is deliberate: branches that unlock and
// return early simply end the held region at the Unlock, which matches how
// this codebase structures its critical sections.

// LockScopePass returns the lockscope pass.
func LockScopePass() *Pass {
	return &Pass{
		Name: "lockscope",
		Doc:  "no agent-visible callbacks under a lock; no locks copied by value",
		Run:  runLockScope,
	}
}

// reentrantNames are method names treated as agent-visible re-entry points:
// the learner's oracle interfaces and the public verification entry points.
var reentrantNames = map[string]bool{
	"Learn":  true,
	"Mine":   true,
	"Slice":  true,
	"Eval":   true,
	"Encode": true,
	"Verify": true,
}

func runLockScope(c *Context) {
	for _, file := range c.Pkg.Files {
		for _, unit := range funcUnits(file) {
			checkLockCopies(c, unit)
			checkHeldCallbacks(c, unit)
		}
	}
}

// checkLockCopies flags by-value lock types in a function's signature.
func checkLockCopies(c *Context, unit funcUnit) {
	if unit.decl == nil {
		return // literals: their signatures rarely carry locks; skip
	}
	report := func(fl *ast.Field, what string) {
		t := c.TypeOf(fl.Type)
		if t == nil {
			return
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return
		}
		if containsLock(t) {
			c.Reportf(fl.Type.Pos(), "%s of %s passes a lock by value (type %s contains a sync mutex; use a pointer)",
				what, unit.name, t.String())
		}
	}
	if unit.decl.Recv != nil {
		for _, fl := range unit.decl.Recv.List {
			report(fl, "receiver")
		}
	}
	if unit.decl.Type.Params != nil {
		for _, fl := range unit.decl.Type.Params.List {
			report(fl, "parameter")
		}
	}
	if unit.decl.Type.Results != nil {
		for _, fl := range unit.decl.Type.Results.List {
			report(fl, "result")
		}
	}
}

// checkHeldCallbacks scans one function body in source order, tracking the
// set of held locks and flagging agent-visible calls inside held regions.
func checkHeldCallbacks(c *Context, unit funcUnit) {
	held := make(map[string]bool) // lock expr (e.g. "l.mu") → held
	lockedConvention := strings.HasSuffix(unit.name, "Locked")
	params := paramObjects(c, unit)
	heldAny := func() (string, bool) {
		if len(held) > 0 {
			keys := make([]string, 0, len(held))
			for k := range held {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return keys[0], true
		}
		if lockedConvention {
			return "a caller-held lock (…Locked naming convention)", true
		}
		return "", false
	}

	walkUnit(unit.body, func(n ast.Node, parents []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)

		// Lock-state transitions, including the promoted methods of an
		// embedded mutex (reg.Lock() on a struct{ sync.Mutex; … }).
		if isMutexMethod(c, call) {
			key := types.ExprString(calleeRecv(call))
			switch name {
			case "Lock":
				// Re-locking a mutex that is still held in this body — the
				// classic `defer mu.Unlock()` followed by another Lock() —
				// self-deadlocks on a plain Mutex (the deferred Unlock only
				// runs at function end). RLock re-entry is left alone: shared
				// locks legitimately overlap.
				if held[key] {
					c.Reportf(call.Pos(), "Lock of %s while it is still held in this function (a deferred Unlock releases only at return): self-deadlock", key)
				}
				held[key] = true
			case "RLock":
				held[key] = true
			case "Unlock", "RUnlock":
				if !inDefer(parents) {
					delete(held, key)
				}
				// A deferred Unlock releases at function end: the lock
				// stays held for the rest of the scan, which is the point.
			}
			return true
		}

		lock, isHeld := heldAny()
		if !isHeld {
			return true
		}
		if isCallbackCall(c, call, params) {
			c.Reportf(call.Pos(), "call through function value %s while holding %s (agent-visible callback under lock)",
				types.ExprString(call.Fun), lock)
			return true
		}
		if reentrantNames[name] && isMethodCall(c, call) {
			c.Reportf(call.Pos(), "call to %s while holding %s (oracle/re-entry call under lock can deadlock)",
				name, lock)
		}
		return true
	})
}

// isMutexMethod reports whether call invokes a method of sync.Mutex or
// sync.RWMutex, directly on a mutex or promoted through an embedded one.
func isMutexMethod(c *Context, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := c.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && isMutex(recv.Type())
}
