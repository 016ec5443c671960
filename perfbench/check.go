package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"graphdse/internal/dse"
)

// Seeds with pinned output digests. Every run checks its set-up against
// DefaultSeed's pins, whatever its own seed, so a wrong output fails the
// run on any seed. The measured operations of a run on a seed without
// pins must all reproduce the first one's digests. DefaultSeed is the one
// to tune against; HeldOutSeed is kept for checking a claimed gain on
// inputs nobody tuned against.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// pins holds the expected digests by workload and seed: "records" is the
// digest of dse.CanonicalRecords (for daemon-jobs, of the six reference
// sweeps), "table1" the digest of Table I and "recommend" that of the
// §IV-B recommendations. They change only when the program's outputs do.
var pins = map[string]map[int64]map[string]string{
	"paper-workflow": {
		DefaultSeed: {"records": "49a8b1280f0df646", "table1": "7ddad25641dbd64f", "recommend": "4663da313783ca9d"},
		HeldOutSeed: {"records": "c53e839a6643fc12", "table1": "82acc888233832bd", "recommend": "868cfda379f6baf3"},
	},
	"daemon-jobs": {
		DefaultSeed: {"records": "70a86c30cdfe293e"},
		HeldOutSeed: {"records": "7d49bb9f1bc11840"},
	},
}

// checkPinned compares got with pinned digests and returns a description
// of the first mismatch ("" when all match). A digest without a pin is a
// mismatch too, so the check cannot pass for want of pins.
func checkPinned(pinned, got map[string]string) string {
	for _, k := range sortedKeys(got) {
		if w, ok := pinned[k]; !ok || w != got[k] {
			return fmt.Sprintf("%s digest %s, pinned %q", k, got[k], w)
		}
	}
	return ""
}

// expectations checks digests against pinned values and, for keys without
// a pin, against the first value seen. Any mismatch marks the run wrong.
type expectations struct {
	want map[string]string
}

// newExpectations starts from the pinned digests of a workload and seed.
func newExpectations(pinned map[string]string) *expectations {
	e := &expectations{want: map[string]string{}}
	for k, v := range pinned {
		e.want[k] = v
	}
	return e
}

// check compares every digest in got and returns a description of the
// first mismatch ("" when all match).
func (e *expectations) check(got map[string]string) string {
	for _, k := range sortedKeys(got) {
		w, ok := e.want[k]
		if !ok {
			e.want[k] = got[k]
			continue
		}
		if w != got[k] {
			return fmt.Sprintf("%s digest %s, want %s", k, got[k], w)
		}
	}
	return ""
}

func sumHex(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// recordsDigest hashes the canonical (sorted, checkpoint-encoded) records.
func recordsDigest(records []dse.RunRecord) (string, error) {
	lines, err := dse.CanonicalRecords(records)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return sumHex(h), nil
}

// table1Digest hashes every Table I cell bit for bit.
func table1Digest(table []dse.ModelPerf) string {
	h := sha256.New()
	for _, c := range table {
		fmt.Fprintf(h, "%s|%s|%016x|%016x\n", c.Metric, c.Model, math.Float64bits(c.MSE), math.Float64bits(c.R2))
	}
	return sumHex(h)
}

// recommendDigest hashes the §IV-B recommendations (fmt prints map keys
// sorted, so the rendering is deterministic).
func recommendDigest(r dse.Recommendations) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", r)
	return sumHex(h)
}

// meanR2 is the mean R² over Table I's cells.
func meanR2(table []dse.ModelPerf) float64 {
	if len(table) == 0 {
		return 0
	}
	s := 0.0
	for _, c := range table {
		s += c.R2
	}
	return s / float64(len(table))
}
