// Package crashsim is the hard-kill half of the robustness harness. Where
// internal/faultinject returns injected *errors* from named points (the
// code under test sees the failure and must degrade), crashsim terminates
// the whole process with SIGKILL at a named point — the code under test
// sees nothing at all, which is exactly the contract a write-ahead journal
// has to survive: no deferred functions, no flushes, no atexit hooks, the
// same observable effect as `kill -9` or a power cut mid-instruction.
//
// Arming is environment-driven so a torture harness can re-exec its own
// test binary as a child, point HHCRASH_POINT at one compiled-in site, and
// assert recovery invariants on whatever the dead child left on disk:
//
//	HHCRASH_POINT=journal.append.torn HHCRASH_HIT=5 ./pkg.test -run TestCrashChild
//
// kills the child the fifth time execution reaches that point. A process
// with HHCRASH_POINT unset pays one string comparison per visited point
// (Enabled() is a read of an init-time immutable), so the hooks are safe
// to leave compiled into production paths, mirroring faultinject.
package crashsim

import (
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
)

// Environment variables the harness sets on the child process.
const (
	// EnvPoint names the single armed crash point; empty disarms the
	// whole package.
	EnvPoint = "HHCRASH_POINT"
	// EnvHit is the 1-based visit number that crashes (default 1): the
	// Nth time execution reaches the armed point, the process dies.
	EnvHit = "HHCRASH_HIT"
)

var (
	armedPoint = os.Getenv(EnvPoint)
	armedHit   = envHit()
	visits     atomic.Int64
)

func envHit() int64 {
	n, err := strconv.Atoi(os.Getenv(EnvHit))
	if err != nil || n < 1 {
		return 1
	}
	return int64(n)
}

// Enabled reports whether any crash point is armed. Hot paths check it
// first; it is an immutable read, false for the whole life of any process
// the torture harness did not spawn.
func Enabled() bool { return armedPoint != "" }

// WouldCrash consumes one visit to point and reports whether this visit is
// the armed one. Callers that need to do something *between* the decision
// and death (write half a record, for instance) use this plus Crash;
// everyone else uses Maybe.
func WouldCrash(point string) bool {
	if armedPoint != point {
		return false
	}
	return visits.Add(1) == armedHit
}

// Crash terminates the process with SIGKILL. Nothing downstream runs: no
// deferred functions, no finalizers, no buffered-writer flushes — the
// on-disk state is frozen exactly as the last completed syscall left it.
func Crash() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	// SIGKILL cannot be caught; block until the kernel reaps us rather
	// than returning into code that believes it survived.
	select {}
}

// Maybe crashes the process if this visit to point is the armed one.
func Maybe(point string) {
	if WouldCrash(point) {
		Crash()
	}
}
