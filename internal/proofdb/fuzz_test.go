package proofdb

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzProofDBRoundTrip drives the store through its full life cycle under
// fuzzer-chosen record contents AND fuzzer-chosen file corruption:
//
//  1. a snapshot derived from the fuzz input is merged and flushed;
//  2. the store file is reopened and must reproduce the snapshot exactly;
//  3. the file is then mutilated at a fuzzer-chosen position and reopening
//     must still succeed (cold or partial — never an error, never a panic).
func FuzzProofDBRoundTrip(f *testing.F) {
	f.Add("key|env", "litA", "litB", true, uint64(1), uint64(2), "pred", uint8(3))
	f.Add("", "", "", false, uint64(0), uint64(0), "", uint8(0))
	f.Add("k\t\n\x00", "n\xff", "g\tz", true, ^uint64(0), uint64(7), "p\n1", uint8(255))

	f.Fuzz(func(t *testing.T, key, lit1, lit2 string, neg bool, a, b uint64, pred string, corrupt uint8) {
		// The payload is JSON, which cannot represent invalid UTF-8 (it is
		// replaced by U+FFFD on marshal); real cache keys and literal names
		// are valid UTF-8 by construction, so sanitize the fuzz strings the
		// same way rather than rejecting the inputs.
		key = strings.ToValidUTF8(key, "�")
		lit1 = strings.ToValidUTF8(lit1, "�")
		lit2 = strings.ToValidUTF8(lit2, "�")
		pred = strings.ToValidUTF8(pred, "�")
		if key == "" {
			key = "k"
		}
		if lit1 == "" {
			lit1 = "x"
		}
		want := &Snapshot{Keys: []KeyRecord{{
			Key: key,
			Verdicts: []Verdict{
				{A: a, B: b, OK: true, Preds: []string{pred}},
				{A: b, B: a, OK: neg, Preds: []string{lit1}},
			},
		}}}
		if lit2 != "" && lit2 != lit1 {
			want.Keys[0].Verdicts = append(want.Keys[0].Verdicts,
				Verdict{A: a ^ 1, B: b, OK: true, Preds: []string{lit1, lit2}})
		}
		// Cone-abduct records ride along under a cone-level key, so the
		// corruption phase below exercises both record types. An empty pred
		// yields the empty-abduct edge case (target only).
		abd := Abduct{Target: "t|" + pred}
		if pred != "" {
			abd.Preds = []string{pred}
		}
		want.Keys = append(want.Keys, KeyRecord{
			Key:     "cone:" + key,
			Abducts: []Abduct{abd},
		})

		dir := t.TempDir()
		now := time.Unix(1_700_000_000, 0)
		opts := Options{Now: func() time.Time { return now }}
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		db.Merge(want)
		// Merge must be idempotent.
		db.Merge(want)
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		db2, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		got := db2.Snapshot()
		// Canonicalize the expectation the same way the store does: verdicts
		// sorted by (a, b), abducts by signature.
		db3, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		db3.Merge(want)
		if canon := db3.Snapshot(); !reflect.DeepEqual(got, canon) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, canon)
		}

		// Corruption phase: damage one byte (or truncate) and reopen.
		path := filepath.Join(dir, FileName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 0 {
			pos := int(corrupt) % len(raw)
			if corrupt%3 == 0 {
				raw = raw[:pos] // truncation
			} else {
				raw[pos] ^= 1 << (corrupt % 8)
			}
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		db4, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen of corrupted store errored (must degrade instead): %v", err)
		}
		if n, w := db4.Snapshot().Len(), db3.Snapshot().Len(); n > w {
			t.Fatalf("corrupted store loaded %d records, more than the %d written", n, w)
		}
		// And the damaged store must still be flushable.
		if err := db4.Close(); err != nil {
			t.Fatalf("Close of recovered store: %v", err)
		}
	})
}
