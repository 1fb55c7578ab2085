package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
)

// Fingerprint builds a stable identity for a workload's estimator-relevant
// content — the I/O profile, CPU time, concurrency, test-run numbers —
// so control planes can key caches of optimization results by "same
// workload" (dotserve's sweep-result memo). Equal inputs written in the same order
// produce equal digests across processes and platforms; every field is
// length- or tag-delimited, so concatenation ambiguities cannot collide.
//
// The zero value is not usable; call NewFingerprint. A Fingerprint is not
// safe for concurrent use.
type Fingerprint struct {
	h hash.Hash
}

// NewFingerprint returns an empty fingerprint accumulator.
func NewFingerprint() *Fingerprint {
	return &Fingerprint{h: sha256.New()}
}

func (f *Fingerprint) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

// String mixes in a length-prefixed string.
func (f *Fingerprint) String(s string) *Fingerprint {
	f.u64(uint64(len(s)))
	f.h.Write([]byte(s))
	return f
}

// Int mixes in an integer.
func (f *Fingerprint) Int(v int64) *Fingerprint {
	f.u64(uint64(v))
	return f
}

// Float mixes in a float by its IEEE-754 bits.
func (f *Fingerprint) Float(v float64) *Fingerprint {
	f.u64(math.Float64bits(v))
	return f
}

// Duration mixes in a duration at nanosecond resolution.
func (f *Fingerprint) Duration(d time.Duration) *Fingerprint {
	return f.Int(int64(d))
}

// Profile mixes in an I/O profile in canonical order: objects sorted by ID,
// each with its per-type counts in device.AllIOTypes order.
func (f *Fingerprint) Profile(p iosim.Profile) *Fingerprint {
	ids := make([]catalog.ObjectID, 0, len(p))
	for id := range p {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	f.u64(uint64(len(ids)))
	for _, id := range ids {
		f.u64(uint64(id))
		v := p.Get(id)
		for _, t := range device.AllIOTypes {
			f.Float(v[t])
		}
	}
	return f
}

// Sum returns the accumulated digest as a hex string. The accumulator stays
// usable: further writes extend the same stream.
func (f *Fingerprint) Sum() string {
	return hex.EncodeToString(f.h.Sum(nil))
}
