package proofdb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// pinnedJournalSegment is the byte-exact proof.db an appending store
// writes for 3 verdict records (clock pinned to 1_700_000_000): the header
// its Open created, then one line per Append. It anchors the fuzz seed
// corpus; TestPinnedJournalSegmentCurrent keeps it honest, so a drifting
// wire format fails loudly instead of the fuzzer quietly seeding stale
// bytes.
const pinnedJournalSegment = "HHPDB v1\n" +
	"8f956e8e\t{\"t\":\"verdict\",\"k\":\"k\",\"at\":1700000000,\"a\":1,\"b\":1,\"ok\":true,\"p\":[\"p\"]}\n" +
	"b433c4e9\t{\"t\":\"verdict\",\"k\":\"k\",\"at\":1700000000,\"a\":2,\"b\":2,\"ok\":true,\"p\":[\"p\"]}\n" +
	"a2ae5d34\t{\"t\":\"verdict\",\"k\":\"k\",\"at\":1700000000,\"a\":3,\"b\":3,\"ok\":true,\"p\":[\"p\"]}\n"

func TestPinnedJournalSegmentCurrent(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	db, err := Open(dir, Options{
		Now:     func() time.Time { return now },
		Journal: JournalOptions{Enable: true, Sync: SyncEveryRecord},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		db.Append(verdictDelta(i))
	}
	db.Abandon()
	if _, raw := storeFile(t, dir); string(raw) != pinnedJournalSegment {
		t.Fatalf("append wire format drifted from the pinned store:\n got %q\nwant %q", raw, pinnedJournalSegment)
	}
}

// FuzzJournalReplay feeds Open both arbitrary proof.db bytes and a
// well-formed appended store mutilated in fuzzer-chosen ways (truncation,
// bit flip, line swap). The invariants under every input:
//
//   - Open never errors and never panics;
//   - recovery is stable: Open truncated a torn tail away, so a second Open
//     applies exactly the same records and finds no torn tail;
//   - of a mutilated store, every record whose line survived intact is
//     recovered, and nothing else is.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(pinnedJournalSegment), uint8(6), uint16(40), uint16(90), false)
	f.Add([]byte(pinnedJournalSegment), uint8(1), uint16(0), uint16(0), true)
	f.Add([]byte("HHPDB v1\n"), uint8(12), uint16(9999), uint16(3), false)
	f.Add([]byte("HHPDB v999\nnot a record"), uint8(3), uint16(1), uint16(120), true)
	f.Add([]byte{}, uint8(20), uint16(500), uint16(500), false)
	f.Add([]byte("\x00\xff\xfe torn garbage \t\t\n\n"), uint8(5), uint16(77), uint16(33), true)

	f.Fuzz(func(t *testing.T, raw []byte, n uint8, trunc, flip uint16, swap bool) {
		// Phase 1: arbitrary bytes as proof.db. No structural expectation
		// survives, but recovery must stay total and stable.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, Options{MaxAge: -1})
		if err != nil {
			t.Fatalf("recovery Open errored on arbitrary bytes: %v", err)
		}
		first := db.Stats().JournalReplayed
		db2, err := Open(dir, Options{MaxAge: -1})
		if err != nil {
			t.Fatalf("second recovery Open errored: %v", err)
		}
		st := db2.Stats()
		if st.JournalReplayed != first {
			t.Fatalf("recovery not stable: first applied %d, second %d", first, st.JournalReplayed)
		}
		if st.JournalTornTails != 0 {
			t.Fatalf("first recovery left a torn tail behind (second counted %d)", st.JournalTornTails)
		}

		// Phase 2: a well-formed appended store of n records, mutilated.
		nRecs := uint64(n%20) + 1
		dir2 := t.TempDir()
		// SyncOnFlush: no fsyncs — the bytes only need to reach the page
		// cache for the corruption phase, and skipping ~20 fsyncs per exec
		// keeps the fuzzer fast.
		jdb, err := Open(dir2, Options{Journal: JournalOptions{Enable: true}})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= nRecs; i++ {
			jdb.Append(verdictDelta(i))
		}
		jdb.Abandon()
		path, body := storeFile(t, dir2)
		var original []string // copied out: the mutations below write into body
		for _, line := range bytes.SplitAfter(body, []byte("\n"))[1 : nRecs+1] {
			original = append(original, string(line))
		}
		if swap {
			// Swap two whole lines (reordered writes), header included.
			lines := bytes.SplitAfter(body, []byte("\n"))
			a, b := int(trunc)%len(lines), int(flip)%len(lines)
			lines[a], lines[b] = lines[b], lines[a]
			body = bytes.Join(lines, nil)
		}
		if int(flip) < len(body) {
			body[flip] ^= 1 << (n % 8)
		}
		if int(trunc) < len(body) {
			body = body[:trunc]
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		got := verdictSet(t, dir2) // fatals if Open errors
		intact := map[string]bool{}
		if bytes.HasPrefix(body, []byte(header()+"\n")) {
			for _, line := range bytes.SplitAfter(body, []byte("\n"))[1:] {
				intact[string(line)] = true
			}
		}
		for i, line := range original {
			if want := intact[line]; got[uint64(i)+1] != want {
				t.Fatalf("record %d: recovered=%v, but its line intact=%v", i+1, got[uint64(i)+1], want)
			}
		}
		if uint64(len(got)) > nRecs {
			t.Fatalf("recovered %d records from a %d-record store", len(got), nRecs)
		}
	})
}
