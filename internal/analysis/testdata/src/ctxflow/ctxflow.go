// Package ctxflow is the golden fixture for the ctxflow pass: a direct
// ctx-less block inside a ctx-bearing function, a dropped ctx
// (context.Background handed to a ctx-accepting callee), and the function
// literal shapes: a deferred literal blocks on its definer's behalf, a
// `go func` literal answers for its own signature, an escaping literal is
// not checked. The guarded shapes — select with a ctx.Done case or a
// default — stay silent, as does a blocking operation in a ctx-less
// callee: the pass is intra-procedural.
package ctxflow

import (
	"context"
	"time"
)

// ok blocks only under a select guarded by ctx.Done: no finding.
func ok(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-time.After(time.Millisecond):
	}
}

// sleepy receives a ctx but sleeps without observing it.
func sleepy(ctx context.Context) {
	time.Sleep(time.Millisecond) // want "ctxflow.sleepy receives a ctx but blocks here without observing it"
}

// drop severs the cancellation chain with a fresh background context.
func drop(ctx context.Context) {
	ok(context.Background()) // want "ctxflow.drop receives a ctx but ok\\(context.Background\\(\\), …\\) drops the caller's ctx"
}

// wait is ctx-less and blocks on a bare receive: no finding, here or at
// caller, which reaches it. The pass checks each body against its own
// signature only.
func wait(ch chan int) {
	<-ch
}

// caller receives a ctx but funnels control into wait's ctx-less receive.
func caller(ctx context.Context, ch chan int) {
	wait(ch)
}

// polling uses a default case, which never blocks: no finding.
func polling(ctx context.Context, ch chan int) {
	select {
	case <-ch:
	default:
	}
}

// deferred blocks in a deferred literal, which runs within its extent.
func deferred(ctx context.Context, ch chan int) {
	defer func() {
		ch <- 1 // want "ctxflow.deferred receives a ctx but blocks here without observing it \\(channel send\\)"
	}()
}

// spawn's go literals are bodies of their own: the ctx-less one's sleep is
// no finding, the ctx-bearing one's receive is its own.
func spawn(ctx context.Context, ch chan int) {
	go func() {
		time.Sleep(time.Millisecond)
	}()
	go func(ctx context.Context) {
		<-ch // want "ctxflow.spawn·go2 receives a ctx but blocks here without observing it \\(channel receive\\)"
	}(ctx)
}

// stored's literal escapes to an unknown caller: no finding.
func stored(ctx context.Context, ch chan int) func() {
	return func() { <-ch }
}

var _ = []any{ok, sleepy, drop, caller, polling, deferred, spawn, stored}
