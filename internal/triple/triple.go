// Package triple implements UniStore's data model: the universal
// relation stored vertically as (OID, attribute, value) triples,
// exactly the layout of RDF.
//
// A logical tuple (OID, v1, ..., vn) of relation schema R(A1, ..., An)
// is decomposed into n triples (OID, Ai, vi). Attribute names may carry
// a namespace prefix ("ns:attr") to distinguish relations and avoid
// conflicts; OIDs are system-generated and only serve to group the
// triples of one logical tuple. Null values are simply absent triples,
// which is what makes the universal relation model practical for
// heterogeneous data (§2 of the paper).
//
// Every triple is indexed under three keys (paper Fig. 2):
//
//	OID    — reproduce the origin tuple
//	A#v    — attribute-qualified lookups and ranges (Ai ≥ vi)
//	v      — queries on an arbitrary attribute by value
package triple

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"unistore/internal/keys"
)

// Value is a typed attribute value: a string or a number. The paper's
// example schema (Fig. 3) uses String, Number and Date; dates are
// represented as strings with order-preserving formatting.
type Value struct {
	// Kind discriminates the representation.
	Kind ValueKind
	Str  string
	Num  float64
}

// ValueKind enumerates value representations.
type ValueKind uint8

// Value kinds.
const (
	KindString ValueKind = iota
	KindNumber
)

// S constructs a string value.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// N constructs a numeric value.
func N(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// String renders the value for display.
func (v Value) String() string {
	if v.Kind == KindNumber {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// Lexical returns the order-preserving string encoding used to build
// index keys. Numbers get a type tag and a byte encoding whose
// lexicographic order matches numeric order, so ranges over numeric
// attributes route correctly.
func (v Value) Lexical() string {
	if v.Kind == KindNumber {
		return "n" + string(keys.EncodeFloatOrdered(v.Num))
	}
	return "s" + v.Str
}

// Compare orders values: numbers before strings, then natural order
// within a kind. This matches the order of Lexical() encodings.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		if v.Kind == KindNumber {
			return -1
		}
		return 1
	}
	if v.Kind == KindNumber {
		switch {
		case v.Num < o.Num:
			return -1
		case v.Num > o.Num:
			return 1
		}
		return 0
	}
	return strings.Compare(v.Str, o.Str)
}

// Equal reports value equality.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// AsNumber reports the numeric interpretation of the value; ok is false
// for non-numeric strings.
func (v Value) AsNumber() (float64, bool) {
	if v.Kind == KindNumber {
		return v.Num, true
	}
	f, err := strconv.ParseFloat(v.Str, 64)
	return f, err == nil
}

// Triple is one (OID, attribute, value) fact.
type Triple struct {
	OID  string
	Attr string
	Val  Value
}

// T is shorthand for constructing a triple with a string value.
func T(oid, attr, val string) Triple { return Triple{OID: oid, Attr: attr, Val: S(val)} }

// TN is shorthand for constructing a triple with a numeric value.
func TN(oid, attr string, val float64) Triple { return Triple{OID: oid, Attr: attr, Val: N(val)} }

// String renders the triple in the paper's (oid,'attr','value') syntax.
func (t Triple) String() string {
	return fmt.Sprintf("(%s,'%s','%s')", t.OID, t.Attr, t.Val)
}

// WireSize estimates the serialized size for network accounting.
func (t Triple) WireSize() int {
	return len(t.OID) + len(t.Attr) + len(t.Val.Str) + 16
}

// Equal reports triple equality.
func (t Triple) Equal(o Triple) bool {
	return t.OID == o.OID && t.Attr == o.Attr && t.Val.Equal(o.Val)
}

// Namespace returns the namespace prefix of the attribute ("" if none):
// for "dblp:title" it returns "dblp".
func (t Triple) Namespace() string {
	if i := strings.IndexByte(t.Attr, ':'); i >= 0 {
		return t.Attr[:i]
	}
	return ""
}

// LocalAttr returns the attribute without its namespace prefix.
func (t Triple) LocalAttr() string {
	if i := strings.IndexByte(t.Attr, ':'); i >= 0 {
		return t.Attr[i+1:]
	}
	return t.Attr
}

// --- Index keys ---------------------------------------------------------

// IndexKind identifies one of the three index entries every triple gets.
type IndexKind uint8

// The three index kinds of Fig. 2.
const (
	ByOID IndexKind = iota // hash(OID)
	ByAV                   // hash(attr # value)
	ByVal                  // hash(value)
)

// String names the index kind as in the paper's figure.
func (k IndexKind) String() string {
	switch k {
	case ByOID:
		return "OID"
	case ByAV:
		return "A#v"
	case ByVal:
		return "v"
	}
	return fmt.Sprintf("IndexKind(%d)", uint8(k))
}

// Key-space regions. Each index kind lives in its own region of the key
// space, marked by the first key byte, so the three entry types never
// collide. Within the A#v region, a 1-byte hash of the attribute name
// follows the region byte: attributes spread uniformly over the key
// space (no attribute-name clustering), while the value encoding that
// follows stays order-preserving — exactly the property range queries
// need, since a range never spans attributes. OID keys hash the OID
// uniformly (only exact lookups touch them); v-index keys keep global
// value order to support cross-attribute prefix/substring search.
const (
	regionOID byte = 0x10
	regionAV  byte = 0x50
	regionVal byte = 0x90
	// RegionGram marks the distributed q-gram index (package qgram).
	RegionGram byte = 0xC0
)

// fnv64 is the FNV-1a hash used to spread OIDs and attribute names.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// composeKey builds a MaxDepth-bit key from a region byte and parts.
func composeKey(region byte, parts ...string) keys.Key {
	b := make([]byte, keys.MaxDepth/8)
	b[0] = region
	i := 1
	for _, p := range parts {
		i += copy(b[i:], p)
		if i >= len(b) {
			break
		}
	}
	return keys.FromBytes(b, keys.MaxDepth)
}

// attrTag returns a 1-byte uniform hash of an attribute name. One byte
// keeps intra-attribute key divergence shallow enough for the adaptive
// trie to split hot attributes at realistic peer counts; tag collisions
// merely co-locate two attributes' regions, which the executor's
// pattern matching filters out.
func attrTag(attr string) string {
	h := fnv64(attr)
	return string([]byte{byte(h ^ (h >> 8) ^ (h >> 16))})
}

// OIDKey returns the placement key for the triple's OID index entry.
func OIDKey(oid string) keys.Key {
	h := fnv64(oid)
	var b [8]byte
	for i := range b {
		b[i] = byte(h >> (56 - 8*i))
	}
	return composeKey(regionOID, string(b[:]), oid)
}

// AVKey returns the placement key for an attribute#value index entry.
func AVKey(attr string, v Value) keys.Key {
	return composeKey(regionAV, attrTag(attr), v.Lexical())
}

// ValKey returns the placement key for the value index entry.
func ValKey(v Value) keys.Key { return composeKey(regionVal, v.Lexical()) }

// IndexKey returns the placement key of the triple under the given
// index kind.
func IndexKey(t Triple, kind IndexKind) keys.Key {
	switch kind {
	case ByOID:
		return OIDKey(t.OID)
	case ByAV:
		return AVKey(t.Attr, t.Val)
	case ByVal:
		return ValKey(t.Val)
	}
	panic(fmt.Sprintf("triple: unknown index kind %d", kind))
}

// AllIndexKinds lists the three kinds in insertion order.
var AllIndexKinds = [3]IndexKind{ByOID, ByAV, ByVal}

// composePrefix builds a key prefix (not padded to MaxDepth) from a
// region byte and parts, for deriving prefix ranges.
func composePrefix(region byte, parts ...string) keys.Key {
	b := []byte{region}
	for _, p := range parts {
		b = append(b, p...)
	}
	if len(b) > keys.MaxDepth/8 {
		b = b[:keys.MaxDepth/8]
	}
	return keys.FromBytes(b, len(b)*8)
}

// AVPrefixRange returns the key range of all A#v entries for attribute
// attr (any value): the access path for pattern (?x, attr, ?v).
func AVPrefixRange(attr string) keys.Range {
	return keys.PrefixRange(composePrefix(regionAV, attrTag(attr)))
}

// AVRange returns the key range for attr with values in [lo, hi); an
// unbounded hi covers all values >= lo of lo's kind and beyond, clamped
// to the attribute's own region.
func AVRange(attr string, lo Value, hi *Value) keys.Range {
	r := keys.Range{Lo: AVKey(attr, lo)}
	if hi != nil {
		r.Hi = AVKey(attr, *hi)
		r.HiOpen = true
	} else {
		pr := AVPrefixRange(attr)
		r.Hi, r.HiOpen = pr.Hi, pr.HiOpen
	}
	return r
}

// ValPrefixRange returns the key range of all v-index entries whose
// string value starts with prefix — the substring-search entry point.
func ValPrefixRange(prefix string) keys.Range {
	return keys.PrefixRange(composePrefix(regionVal, "s"+prefix))
}

// AVStringPrefixRange returns the key range of A#v entries for attr
// whose string value starts with prefix.
func AVStringPrefixRange(attr, prefix string) keys.Range {
	return keys.PrefixRange(composePrefix(regionAV, attrTag(attr), "s"+prefix))
}

// AVKindRange returns the key range of attr's A#v entries whose values
// are of one kind: every number (NaN included), or every string.
func AVKindRange(attr string, kind ValueKind) keys.Range {
	tag := "s"
	if kind == KindNumber {
		tag = "n"
	}
	return keys.PrefixRange(composePrefix(regionAV, attrTag(attr), tag))
}

// AVNumberRange returns the key range of attr's numeric A#v entries
// with values from lo to hi; an open bound excludes the value itself.
// ±Inf bounds are ordinary values, so a closed infinite bound includes
// the infinity (NaN lies outside every such range). -0 and +0 compare
// equal but encode apart, -0 just below +0, so a bound at zero covers
// both. ok is false when no number lies between the bounds.
func AVNumberRange(attr string, lo, hi float64, loOpen, hiOpen bool) (r keys.Range, ok bool) {
	if !(lo <= hi) || (lo == hi && (loOpen || hiOpen)) {
		return keys.Range{}, false
	}
	negZero := math.Copysign(0, -1)
	below := func(f float64) keys.Key { // the lowest key equal to f
		if f == 0 {
			f = negZero
		}
		return AVKey(attr, N(f))
	}
	above := func(f float64) keys.Key { // the first key past every key equal to f
		if f == 0 {
			f = 0 // +0, the higher zero
		}
		k, _ := AVKey(attr, N(f)).Successor()
		return k
	}
	r.Lo, r.Hi, r.HiOpen = below(lo), above(hi), true
	if loOpen {
		r.Lo = above(lo)
	}
	if hiOpen {
		r.Hi = below(hi)
	}
	return r, true
}

// --- Distributed q-gram index keys ----------------------------------------

// GramAttrPrefix marks gram-posting triples' attribute names; the
// posting for gram g of attribute a on value v is stored as the triple
// (v, GramAttrPrefix+a+"#"+g, v) at GramKey(a, g, v). Postings live in
// their own key-space region and never collide with instance data.
const GramAttrPrefix = "qgram:"

// GramTriple builds the posting triple for one gram of a value.
func GramTriple(attr, gram string, val string) Triple {
	return Triple{OID: val, Attr: GramAttrPrefix + attr + "#" + gram, Val: S(val)}
}

// GramKey places a gram posting: region byte, attribute tag, the gram,
// then the value (so one gram's postings are contiguous and ordered).
func GramKey(attr, gram, val string) keys.Key {
	return composeKey(RegionGram, attrTag(attr), gram, "#", val)
}

// GramRange is the key range holding every posting of one gram of one
// attribute — the access path of the distributed similarity operator.
func GramRange(attr, gram string) keys.Range {
	return keys.PrefixRange(composePrefix(RegionGram, attrTag(attr), gram, "#"))
}

// --- Tuples and the universal relation ----------------------------------

// Tuple is a logical tuple: an OID plus attribute→value pairs. It is
// the unit users insert; storage decomposes it into triples.
type Tuple struct {
	OID   string
	Attrs map[string]Value
}

// NewTuple creates an empty tuple with the given OID.
func NewTuple(oid string) *Tuple {
	return &Tuple{OID: oid, Attrs: make(map[string]Value)}
}

// Set assigns an attribute value and returns the tuple for chaining.
func (tp *Tuple) Set(attr string, v Value) *Tuple {
	tp.Attrs[attr] = v
	return tp
}

// Triples decomposes the tuple into its vertical representation, in
// deterministic (attribute-sorted) order.
func (tp *Tuple) Triples() []Triple {
	attrs := make([]string, 0, len(tp.Attrs))
	for a := range tp.Attrs {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	ts := make([]Triple, 0, len(attrs))
	for _, a := range attrs {
		ts = append(ts, Triple{OID: tp.OID, Attr: a, Val: tp.Attrs[a]})
	}
	return ts
}

// Recompose groups triples by OID back into logical tuples — the inverse
// of Triples. Triples with duplicate attributes keep the last value.
func Recompose(ts []Triple) []*Tuple {
	byOID := make(map[string]*Tuple)
	var order []string
	for _, t := range ts {
		tp, ok := byOID[t.OID]
		if !ok {
			tp = NewTuple(t.OID)
			byOID[t.OID] = tp
			order = append(order, t.OID)
		}
		tp.Attrs[t.Attr] = t.Val
	}
	out := make([]*Tuple, 0, len(order))
	for _, oid := range order {
		out = append(out, byOID[oid])
	}
	return out
}

// oidCounter backs GenerateOID.
var oidCounter atomic.Uint64

// GenerateOID returns a fresh system-generated OID with the given
// prefix (e.g., a peer name), mirroring the paper's system-generated
// URIs that group the triples of a logical tuple.
func GenerateOID(prefix string) string {
	n := oidCounter.Add(1)
	if prefix == "" {
		prefix = "oid"
	}
	return fmt.Sprintf("%s-%06d", prefix, n)
}
