package hhoudini

import (
	"errors"
	"fmt"
)

// ErrBudgetExceeded is the typed verdict for a solver query that exhausted
// its conflict budget without resolving. During learning it is an internal
// signal consumed by the escalation ladder (solveAbduction) and only
// escapes — wrapped with the query's context — when the ladder's unbounded
// top rung still returns Unknown; Audit/AuditBudget return it when the
// monolithic consecution check outgrows its budget. Callers test for it
// with errors.Is and may retry with a larger budget: budget exhaustion is
// a resource verdict, never a soundness one.
var ErrBudgetExceeded = errors.New("hhoudini: solver conflict budget exceeded")

// errLearnInterrupted is the internal marker a worker reports when it
// observes the learner's stop flag (or its solver's interrupt) mid-task.
// LearnCtx's epilogue translates it into the context's own error, so
// callers always see context.Canceled / context.DeadlineExceeded rather
// than a package-private sentinel.
var errLearnInterrupted = errors.New("hhoudini: learning interrupted")

// PanicError reports a panic captured at a worker's recover boundary: the
// task body (slicing, mining, predicate encoding or solving) for PredID
// panicked with Value, and Stack is the panicking goroutine's stack at
// recovery time. The Learn that owned the worker fails with this error
// while sibling workers drain cleanly and the process survives — fault
// isolation per the robustness tentpole.
type PanicError struct {
	// PredID identifies the obligation whose task body panicked.
	PredID string
	// Value is the value passed to panic.
	Value any
	// Stack is the formatted stack trace (runtime/debug.Stack) captured
	// inside the deferred recover.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("hhoudini: worker panic on task %s: %v\n%s", e.PredID, e.Value, e.Stack)
}
