package proofdb

// The crash-point torture harness: the proof that the store's recovery
// contract holds under real process death, not just simulated errors.
//
// The parent test re-execs its own test binary as a child
// (TestCrashChild), arms exactly one internal/crashsim point via the
// environment, and lets the child SIGKILL itself mid-append, mid-fsync, or
// around the rewrite's rename. The child records its committed
// progress in a side file as it goes; the parent then recovers the store
// and asserts, for every (point, hit, sync policy) cell of the matrix:
//
//   - recovery never errors (Open is total on crash wreckage);
//   - the recovered state is a prefix 1..k of the append order;
//   - k >= the committed watermark: loss <= records since the last sync,
//     and exactly zero committed loss under SyncEveryRecord.
//
// A truncate-at-every-byte-offset sweep covers the byte-granular torn-tail
// space the kill matrix samples only pointwise.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// Child-protocol environment variables.
const (
	envCrashChild  = "HH_CRASH_CHILD"  // selects the child role
	envCrashDir    = "HH_CRASH_DIR"    // store directory
	envCrashPolicy = "HH_CRASH_POLICY" // "every" | "flush"
	envCrashDo     = "HH_CRASH_DO"     // "append" | "snapshot"
)

const crashChildRecords = 40

// TestCrashChild is the re-exec target, not a test: it runs only when the
// torture harness spawned it, performs the scripted append workload, and —
// if an armed crash point is reached — dies by SIGKILL somewhere in the
// middle of it.
func TestCrashChild(t *testing.T) {
	if os.Getenv(envCrashChild) == "" {
		t.Skip("torture-harness child entry point")
	}
	dir := os.Getenv(envCrashDir)
	opts := Options{Journal: JournalOptions{Enable: true}}
	syncEvery := os.Getenv(envCrashPolicy) == "every"
	if syncEvery {
		opts.Journal.Sync = SyncEveryRecord
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	progress, err := os.OpenFile(filepath.Join(dir, "progress.txt"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("child progress file: %v", err)
	}
	mark := func(kind string, n uint64) {
		fmt.Fprintf(progress, "%s %d\n", kind, n)
	}
	snapshotMode := os.Getenv(envCrashDo) == "snapshot"
	for i := uint64(1); i <= crashChildRecords; i++ {
		db.Append(verdictDelta(i))
		if syncEvery {
			// SyncEveryRecord: a returned Append is a committed record.
			mark("C", i)
		}
		if i%10 == 0 {
			if snapshotMode {
				// Crash points live inside the rewrite; the records up
				// to i were synced by their appends or by the rewrite.
				if err := db.Flush(); err != nil {
					t.Fatalf("child flush: %v", err)
				}
				mark("C", i)
			} else if !syncEvery {
				if err := db.Persist(); err != nil {
					t.Fatalf("child persist: %v", err)
				}
				mark("C", i)
			}
		}
	}
	// Reaching here means the armed point was never hit (or none was
	// armed): finish cleanly so the parent can tell the two outcomes apart.
	if err := db.Close(); err != nil {
		t.Fatalf("child close: %v", err)
	}
	mark("DONE", crashChildRecords)
}

// committedWatermark parses the child's progress file: the highest record
// number the child observed as committed, and whether it finished.
func committedWatermark(t *testing.T, dir string) (committed uint64, done bool) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "progress.txt"))
	if os.IsNotExist(err) {
		return 0, false // killed before any commit
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue // torn progress line: the write raced the kill
		}
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue
		}
		if fields[0] == "DONE" {
			done = true
		}
		if n > committed {
			committed = n
		}
	}
	return committed, done
}

// runCrashChild re-execs the test binary against dir with one armed crash
// point and reports whether the child died by SIGKILL.
func runCrashChild(t *testing.T, dir, point string, hit int, policy, do string) (killed bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		envCrashChild+"=1",
		envCrashDir+"="+dir,
		envCrashPolicy+"="+policy,
		envCrashDo+"="+do,
		"HHCRASH_POINT="+point,
		"HHCRASH_HIT="+strconv.Itoa(hit),
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return false // point not reached; child completed
	}
	if ee, ok := err.(*exec.ExitError); ok {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
			return true
		}
	}
	t.Fatalf("child %s hit=%d policy=%s do=%s failed for a reason other than SIGKILL: %v\n%s",
		point, hit, policy, do, err, out)
	return false
}

// checkRecovery asserts the core recovery invariants for one crash cell.
func checkRecovery(t *testing.T, dir string, cell string) {
	t.Helper()
	committed, done := committedWatermark(t, dir)
	got := verdictSet(t, dir) // fatals if recovery Open errors
	k := assertPrefix(t, got)
	if k < committed {
		t.Errorf("%s: recovered prefix 1..%d but child committed %d — committed-record loss", cell, k, committed)
	}
	if k > crashChildRecords {
		t.Errorf("%s: recovered %d records, more than the child ever appended", cell, k)
	}
	if done && k != crashChildRecords {
		t.Errorf("%s: child completed cleanly but recovery found %d/%d records", cell, k, crashChildRecords)
	}
}

// TestCrashTortureMatrix kills a child at every injected crash point, under
// both the zero-loss and the bounded-loss sync policy, at an early and a
// late visit, and asserts recovery after each kill.
func TestCrashTortureMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary 17 times")
	}
	appendPoints := []string{crashAppendBefore, crashAppendTorn, crashAppendAfter, crashSyncAfter}
	for _, policy := range []string{"every", "flush"} {
		for _, point := range appendPoints {
			for _, hit := range []int{1, 7} {
				if policy == "flush" && point == crashSyncAfter && hit == 7 {
					// Only Persist syncs under this policy; the 7th sync
					// never happens. Covered by hit=1.
					continue
				}
				cell := fmt.Sprintf("%s/hit=%d/%s", point, hit, policy)
				dir := t.TempDir()
				if !runCrashChild(t, dir, point, hit, policy, "append") {
					t.Fatalf("%s: crash point never fired", cell)
				}
				checkRecovery(t, dir, cell)
			}
		}
	}
	// Rewrite: a kill on either side of the rename must never lose an
	// appended, committed record.
	for _, point := range []string{crashRenameBefore, crashRenameAfter} {
		cell := point + "/snapshot"
		dir := t.TempDir()
		if !runCrashChild(t, dir, point, 1, "every", "snapshot") {
			t.Fatalf("%s: crash point never fired", cell)
		}
		checkRecovery(t, dir, cell)
	}
}

// TestCrashTruncateEveryOffset sweeps the whole byte space of an appended
// store: truncating it at every offset must recover without error to
// exactly the records whose final newline survived.
func TestCrashTruncateEveryOffset(t *testing.T) {
	pristine := t.TempDir()
	db, err := Open(pristine, Options{Journal: JournalOptions{Enable: true, Sync: SyncEveryRecord}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := uint64(1); i <= n; i++ {
		db.Append(verdictDelta(i))
	}
	db.Abandon()
	_, raw := storeFile(t, pristine)
	// Record boundaries: offset just past each line's newline, and how many
	// records are complete at that point (the header is line 0).
	completeAt := func(off int) uint64 {
		var records uint64
		headerDone := false
		for i, b := range raw {
			if b != '\n' {
				continue
			}
			if i+1 > off {
				break // this line is torn by the truncation
			}
			if !headerDone {
				headerDone = true // line 0 is the store header
			} else {
				records++
			}
		}
		if !headerDone {
			return 0
		}
		return records
	}
	for off := 0; off <= len(raw); off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		got := verdictSet(t, dir) // fatals if Open errors
		k := assertPrefix(t, got)
		want := completeAt(off)
		if k != want {
			t.Fatalf("truncate at %d/%d: recovered %d records, want %d", off, len(raw), k, want)
		}
	}
}
