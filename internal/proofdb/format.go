// On-disk format of the persistent proof store, one file (proof.db):
//
//	line 0:  "HHPDB v<version>"            — magic + format version
//	line N:  "<crc32-hex8>\t<json-record>" — one record per line
//
// The IEEE CRC32 of the JSON payload catches partial writes and bit flips
// line-locally, and JSON keeps the store greppable and lets readers skip
// record types they do not know. A Flush writes such lines whole, an Append
// adds them at the end. A line that is truncated, fails its CRC, or breaks
// the schema is skipped and counted — never an error. Only the header is
// strict: a missing or mismatched one rejects the file (records under
// another schema could be unsound), which degrades to a cold start.
package proofdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

const (
	magic = "HHPDB"
	// Version is the on-disk format version. Bump it on any change to the
	// record schema or its semantics; loaders reject mismatched versions
	// wholesale (cold start) rather than guessing.
	Version = 1
)

// header is the exact first line of a store file (without the newline).
func header() string { return fmt.Sprintf("%s v%d", magic, Version) }

// Record type tags. Adding a type never bumps Version (readers skip types
// they do not know); Version is for changes to the meaning of existing
// ones. recLegacyClause is the learnt-clause record older engines wrote:
// it is recognised, so their stores open without reporting corruption, and
// dropped at load.
const (
	recVerdict      = "verdict"
	recConeAbduct   = "coneabd"
	recLegacyClause = "clause"
)

// record is the wire form of one store line. Verdict and cone-abduct
// records share the struct; omitempty keeps each line minimal (all omitted
// fields decode to their zero value, which is exactly what was encoded).
type record struct {
	T   string `json:"t"`  // recVerdict | recConeAbduct
	Key string `json:"k"`  // cache key: circuit fingerprint | EnvKey
	At  int64  `json:"at"` // unix seconds of last use (staleness policy)

	// Verdict fields. A/B are the two independent 64-bit hashes of the
	// abduction-query identity; OK false means "no abduct exists".
	// Cone-abduct records reuse Preds: Preds[0] is the target predicate ID,
	// Preds[1:] are the abduct member IDs (possibly none — an empty abduct
	// means the target is inductive relative to nothing but itself).
	A     uint64   `json:"a,omitempty"`
	B     uint64   `json:"b,omitempty"`
	OK    bool     `json:"ok,omitempty"`
	Preds []string `json:"p,omitempty"`
}

// valid reports whether a decoded record is semantically well-formed.
func (r *record) valid() bool {
	if r.Key == "" {
		return false
	}
	switch r.T {
	case recVerdict, recLegacyClause:
		return true
	case recConeAbduct:
		for _, p := range r.Preds {
			if p == "" {
				return false
			}
		}
		return len(r.Preds) > 0
	default:
		return false // unknown type: skip (forward compatibility)
	}
}

// encodeLine renders one record as a checksummed store line (with trailing
// newline).
func encodeLine(r *record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x\t", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decodeLine parses one store line (without trailing newline). It returns
// ok=false for any malformed line — bad framing, CRC mismatch, JSON error,
// or semantic invalidity — without distinguishing the failure mode: the
// caller treats every one as "skip this record".
func decodeLine(line []byte) (record, bool) {
	var r record
	tab := bytes.IndexByte(line, '\t')
	if tab != 8 {
		return r, false
	}
	want, err := strconv.ParseUint(string(line[:tab]), 16, 32)
	if err != nil {
		return r, false
	}
	payload := line[tab+1:]
	if crc32.ChecksumIEEE(payload) != uint32(want) {
		return r, false
	}
	if err := json.Unmarshal(payload, &r); err != nil || !r.valid() {
		return r, false
	}
	return r, true
}
