package pgrid

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// SubjectFilter is a Bloom filter over subject OIDs: the upstream side
// of a semi-join filtered scan (a Bloomjoin). The scan carries it to
// every serving peer, in the shower message and in each page
// continuation, and a server sends only the entries whose OID the
// filter may contain. A false positive costs one entry the origin's
// join drops; a false negative cannot happen, so the scan stays exact.
// A nil filter admits everything.
type SubjectFilter struct {
	words []uint64
}

// Fixed filter shape: ~10 bits per key with 7 probes gives a false
// positive rate near 1%. filterMaxWords caps a filter (and what the
// decoder accepts) at 8 MB; a larger key set only raises the rate.
const (
	filterBitsPerKey = 10
	filterHashes     = 7
	filterMaxWords   = 1 << 20
)

// NewSubjectFilter builds a filter holding every OID of oids.
func NewSubjectFilter(oids []string) *SubjectFilter {
	n := (len(oids)*filterBitsPerKey + 63) / 64
	f := &SubjectFilter{words: make([]uint64, min(max(n, 1), filterMaxWords))}
	for _, oid := range oids {
		h1, h2 := filterHash(oid)
		m := uint64(len(f.words)) * 64
		for i := uint64(0); i < filterHashes; i++ {
			b := (h1 + i*h2) % m
			f.words[b/64] |= 1 << (b % 64)
		}
	}
	return f
}

// filterHash splits the FNV-1a hash of an OID into the two hashes of
// double hashing; the second is odd, so its multiples never repeat a
// bit position before cycling the filter.
func filterHash(oid string) (uint64, uint64) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(oid); i++ {
		h ^= uint64(oid[i])
		h *= prime
	}
	return h, bits.RotateLeft64(h, 32) | 1
}

// Has reports whether oid may be in the filter.
func (f *SubjectFilter) Has(oid string) bool {
	if f == nil || len(f.words) == 0 {
		return true
	}
	h1, h2 := filterHash(oid)
	m := uint64(len(f.words)) * 64
	for i := uint64(0); i < filterHashes; i++ {
		b := (h1 + i*h2) % m
		if f.words[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// WireSize is the filter's encoded size (0 for no filter).
func (f *SubjectFilter) WireSize() int {
	if f == nil {
		return 0
	}
	return 8 * len(f.words)
}

// errBadFilter rejects a malformed filter from the wire.
var errBadFilter = errors.New("pgrid: malformed subject filter")

// MarshalBinary encodes the filter as its words, little-endian.
func (f *SubjectFilter) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8*len(f.words))
	for i, w := range f.words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary decodes a filter, rejecting an empty one, a length
// that is not a whole number of words, and one above the size cap:
// wire data is untrusted.
func (f *SubjectFilter) UnmarshalBinary(data []byte) error {
	if len(data) == 0 || len(data)%8 != 0 || len(data)/8 > filterMaxWords {
		return errBadFilter
	}
	f.words = make([]uint64, len(data)/8)
	for i := range f.words {
		f.words[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return nil
}

// WithSubjects makes a range scan semi-join filtered: serving peers
// send only the entries whose OID f may contain. Retry showers, page
// pulls and their hedges carry f on, so a resumed scan filters alike.
func WithSubjects(f *SubjectFilter) OpOption {
	return func(s *opSettings) { s.subjects = f }
}

// optionSettings folds a list of options.
func optionSettings(opts []OpOption) opSettings {
	var st opSettings
	for _, o := range opts {
		o(&st)
	}
	return st
}
