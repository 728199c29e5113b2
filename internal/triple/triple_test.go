package triple

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"unistore/internal/keys"
)

func TestValueString(t *testing.T) {
	if S("ICDE").String() != "ICDE" {
		t.Error("string value rendering")
	}
	if N(2006).String() != "2006" {
		t.Errorf("numeric value rendering: %q", N(2006).String())
	}
	if N(2.5).String() != "2.5" {
		t.Errorf("numeric value rendering: %q", N(2.5).String())
	}
}

func TestValueCompare(t *testing.T) {
	ordered := []Value{N(-5), N(0), N(2005), N(2006), S(""), S("ICDE"), S("VLDB")}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

// Property: Lexical() encoding preserves Compare() order, which is what
// lets numeric ranges route through the order-preserving hash.
func TestLexicalOrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		la, lb := N(a).Lexical(), N(b).Lexical()
		switch {
		case a < b:
			return la < lb
		case a > b:
			return la > lb
		default:
			return la == lb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		la, lb := S(a).Lexical(), S(b).Lexical()
		return (a < b) == (la < lb) && (a == b) == (la == lb)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNumbersSortBeforeStringsInLexical(t *testing.T) {
	if !(N(1e308).Lexical() < S("").Lexical()) {
		t.Error("numeric encodings must sort before string encodings, matching Compare")
	}
}

func TestAsNumber(t *testing.T) {
	if v, ok := N(7).AsNumber(); !ok || v != 7 {
		t.Error("number AsNumber")
	}
	if v, ok := S("2006").AsNumber(); !ok || v != 2006 {
		t.Error("numeric string AsNumber")
	}
	if _, ok := S("ICDE").AsNumber(); ok {
		t.Error("non-numeric string must not parse")
	}
}

func TestTripleString(t *testing.T) {
	tr := T("a12", "confname", "ICDE 2006 - WS")
	if got := tr.String(); got != "(a12,'confname','ICDE 2006 - WS')" {
		t.Errorf("String() = %q", got)
	}
}

func TestNamespace(t *testing.T) {
	tr := T("a12", "dblp:title", "Similarity...")
	if tr.Namespace() != "dblp" || tr.LocalAttr() != "title" {
		t.Errorf("ns=%q local=%q", tr.Namespace(), tr.LocalAttr())
	}
	plain := T("a12", "title", "x")
	if plain.Namespace() != "" || plain.LocalAttr() != "title" {
		t.Error("attribute without namespace")
	}
}

func TestIndexKeysDistinctRegions(t *testing.T) {
	tr := T("a12", "year", "2006")
	ko := IndexKey(tr, ByOID)
	ka := IndexKey(tr, ByAV)
	kv := IndexKey(tr, ByVal)
	if ko.Equal(ka) || ka.Equal(kv) || ko.Equal(kv) {
		t.Error("the three index keys must land in distinct key-space regions")
	}
	// Region bytes order the index regions: OID(0x10) < AV(0x50) < v(0x90).
	if !(ko.Compare(ka) < 0 && ka.Compare(kv) < 0) {
		t.Error("expected OID < A#v < v region ordering")
	}
}

func TestIndexKindString(t *testing.T) {
	if ByOID.String() != "OID" || ByAV.String() != "A#v" || ByVal.String() != "v" {
		t.Error("IndexKind names must match the paper's figure")
	}
}

func TestAVKeyGroupsByAttribute(t *testing.T) {
	r := AVPrefixRange("confname")
	in := []Triple{
		T("a12", "confname", "ICDE 2006 - WS"),
		T("v34", "confname", "ICDE 2005"),
	}
	out := []Triple{
		T("a12", "title", "Similarity..."),
		TN("a12", "year", 2006),
	}
	for _, tr := range in {
		if !r.Contains(IndexKey(tr, ByAV)) {
			t.Errorf("A#v key of %v must fall in confname's range", tr)
		}
	}
	for _, tr := range out {
		if r.Contains(IndexKey(tr, ByAV)) {
			t.Errorf("A#v key of %v must not fall in confname's range", tr)
		}
	}
}

func TestAVRangeNumeric(t *testing.T) {
	lo := N(2005)
	r := AVRange("year", lo, nil)
	if !r.Contains(AVKey("year", N(2005))) || !r.Contains(AVKey("year", N(2006))) {
		t.Error("year >= 2005 must contain 2005 and 2006")
	}
	if r.Contains(AVKey("year", N(2004))) {
		t.Error("year >= 2005 must not contain 2004")
	}
	if r.Contains(AVKey("age", N(2006))) {
		t.Error("range must not include other attributes")
	}
	hi := N(2006)
	bounded := AVRange("year", lo, &hi)
	if bounded.Contains(AVKey("year", N(2006))) {
		t.Error("half-open range must exclude hi")
	}
	if !bounded.Contains(AVKey("year", N(2005))) {
		t.Error("half-open range must include lo")
	}
}

func TestValPrefixRange(t *testing.T) {
	r := ValPrefixRange("ICDE")
	if !r.Contains(ValKey(S("ICDE 2005"))) || !r.Contains(ValKey(S("ICDE"))) {
		t.Error("value prefix range must contain extensions")
	}
	if r.Contains(ValKey(S("VLDB"))) {
		t.Error("value prefix range must exclude other values")
	}
	if r.Contains(AVKey("confname", S("ICDE 2005"))) {
		t.Error("value prefix range must exclude the A#v region")
	}
}

func TestAVStringPrefixRange(t *testing.T) {
	r := AVStringPrefixRange("confname", "ICDE")
	if !r.Contains(AVKey("confname", S("ICDE 2006 - WS"))) {
		t.Error("prefix range must contain matching A#v entries")
	}
	if r.Contains(AVKey("confname", S("VLDB 2006"))) {
		t.Error("prefix range must exclude non-matching values")
	}
	if r.Contains(AVKey("series", S("ICDE"))) {
		t.Error("prefix range must exclude other attributes")
	}
}

func TestTupleTriplesDecomposition(t *testing.T) {
	// The paper's Fig. 2 example: one tuple with three attributes
	// becomes three triples (then ×3 index entries at insertion).
	tp := NewTuple("a12").
		Set("title", S("Similarity...")).
		Set("confname", S("ICDE 2006 - Workshops")).
		Set("year", N(2006))
	ts := tp.Triples()
	if len(ts) != 3 {
		t.Fatalf("3-attribute tuple must yield 3 triples, got %d", len(ts))
	}
	// Deterministic attribute order.
	if ts[0].Attr != "confname" || ts[1].Attr != "title" || ts[2].Attr != "year" {
		t.Errorf("triples not in sorted attribute order: %v", ts)
	}
	for _, tr := range ts {
		if tr.OID != "a12" {
			t.Errorf("OID must group the tuple: %v", tr)
		}
	}
}

func TestRecomposeInverse(t *testing.T) {
	t1 := NewTuple("a12").Set("title", S("Similarity...")).Set("year", N(2006))
	t2 := NewTuple("v34").Set("title", S("Progressive...")).Set("year", N(2005))
	var all []Triple
	all = append(all, t1.Triples()...)
	all = append(all, t2.Triples()...)
	back := Recompose(all)
	if len(back) != 2 {
		t.Fatalf("recomposed %d tuples, want 2", len(back))
	}
	if !reflect.DeepEqual(back[0].Attrs, t1.Attrs) || back[0].OID != "a12" {
		t.Errorf("tuple a12 not reconstructed: %+v", back[0])
	}
	if !reflect.DeepEqual(back[1].Attrs, t2.Attrs) || back[1].OID != "v34" {
		t.Errorf("tuple v34 not reconstructed: %+v", back[1])
	}
}

// Property: Recompose(Triples(t)) is the identity for any tuple —
// vertical storage is lossless (null values are just absent triples).
func TestDecomposeRecomposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	attrs := []string{"name", "age", "phone", "email", "office", "title", "year"}
	for iter := 0; iter < 500; iter++ {
		tp := NewTuple(GenerateOID("t"))
		n := 1 + rng.Intn(len(attrs))
		perm := rng.Perm(len(attrs))
		for i := 0; i < n; i++ {
			a := attrs[perm[i]]
			if rng.Intn(2) == 0 {
				tp.Set(a, N(float64(rng.Intn(1000))))
			} else {
				tp.Set(a, S(strings.Repeat("x", rng.Intn(5))+a))
			}
		}
		back := Recompose(tp.Triples())
		if len(back) != 1 || back[0].OID != tp.OID || !reflect.DeepEqual(back[0].Attrs, tp.Attrs) {
			t.Fatalf("round trip failed for %+v", tp)
		}
	}
}

func TestGenerateOIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		oid := GenerateOID("p1")
		if seen[oid] {
			t.Fatalf("duplicate OID %q", oid)
		}
		seen[oid] = true
	}
	if GenerateOID("") == "" || !strings.HasPrefix(GenerateOID(""), "oid-") {
		t.Error("empty prefix must default")
	}
}

func TestOIDKeyGroupsTuple(t *testing.T) {
	// All triples of one tuple share one OID key: the origin tuple can
	// be reproduced with a single lookup (paper: "efficient
	// reproduction of origin data").
	tp := NewTuple("v34").Set("title", S("Progressive...")).
		Set("confname", S("ICDE 2005")).Set("year", N(2005))
	var k keys.Key
	for i, tr := range tp.Triples() {
		ik := IndexKey(tr, ByOID)
		if i == 0 {
			k = ik
		} else if !ik.Equal(k) {
			t.Error("OID index keys of one tuple must coincide")
		}
	}
}

func TestWireSize(t *testing.T) {
	tr := T("a12", "title", "Similarity...")
	if tr.WireSize() <= 0 {
		t.Error("wire size must be positive")
	}
}

func TestRecomposeKeepsLastDuplicate(t *testing.T) {
	ts := []Triple{T("x", "a", "1"), T("x", "a", "2")}
	back := Recompose(ts)
	if len(back) != 1 || back[0].Attrs["a"].Str != "2" {
		t.Errorf("duplicate attribute handling: %+v", back)
	}
}

func TestIndexKeySortsValuesWithinAttribute(t *testing.T) {
	years := []float64{1999, 2004, 2005, 2006, 2010}
	var prev keys.Key
	for i, y := range years {
		k := AVKey("year", N(y))
		if i > 0 && prev.Compare(k) >= 0 {
			t.Errorf("A#v keys must preserve numeric order at year %v", y)
		}
		prev = k
	}
	confs := []string{"EDBT", "ICDE 2005", "ICDE 2006", "SIGMOD", "VLDB"}
	prev = keys.Key{}
	for i, c := range confs {
		k := AVKey("confname", S(c))
		if i > 0 && prev.Compare(k) >= 0 {
			t.Errorf("A#v keys must preserve string order at %q", c)
		}
		prev = k
	}
}

func TestTripleSortStable(t *testing.T) {
	ts := []Triple{TN("b", "y", 2), T("a", "x", "1"), TN("a", "y", 3)}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].OID != ts[j].OID {
			return ts[i].OID < ts[j].OID
		}
		return ts[i].Attr < ts[j].Attr
	})
	if ts[0].OID != "a" || ts[0].Attr != "x" {
		t.Errorf("sort order: %v", ts)
	}
}

// TestAVNumberRange checks the numeric intervals a pushed-down
// comparison scans against every value's key: open and closed bounds,
// both zeros, the infinities, and the attribute's other value kinds.
func TestAVNumberRange(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []Value{N(math.Inf(-1)), N(-5), N(-1), N(negZero), N(0), N(1), N(5), N(30), N(math.Inf(1)),
		N(math.NaN()), S(""), S("25"), S("abc")}
	inf := math.Inf(1)
	for _, tc := range []struct {
		lo, hi         float64
		loOpen, hiOpen bool
	}{
		{-inf, 30, false, true}, {-inf, 30, false, false}, {30, inf, true, false}, {30, inf, false, false},
		{0, 0, false, false}, {negZero, negZero, false, false}, {-inf, 0, false, true}, {0, inf, true, false},
		{-1, 1, true, true}, {-5, 5, false, false}, {inf, inf, false, false}, {-inf, -inf, false, false},
	} {
		r, ok := AVNumberRange("age", tc.lo, tc.hi, tc.loOpen, tc.hiOpen)
		if !ok {
			t.Errorf("%+v: reported empty", tc)
			continue
		}
		for _, v := range vals {
			in := v.Kind == KindNumber && (v.Num > tc.lo || (v.Num == tc.lo && !tc.loOpen)) &&
				(v.Num < tc.hi || (v.Num == tc.hi && !tc.hiOpen))
			if got := r.Contains(AVKey("age", v)); got != in {
				t.Errorf("%+v: value %v contained=%v, want %v", tc, v, got, in)
			}
		}
	}
	for _, tc := range [][2]float64{{5, 1}, {1, 1}} {
		if _, ok := AVNumberRange("age", tc[0], tc[1], true, false); ok {
			t.Errorf("%v: empty interval reported non-empty", tc)
		}
	}
	for _, v := range vals {
		num, str := AVKindRange("age", KindNumber), AVKindRange("age", KindString)
		k := AVKey("age", v)
		if num.Contains(k) != (v.Kind == KindNumber) || str.Contains(k) != (v.Kind == KindString) {
			t.Errorf("value %v in the wrong kind sub-region", v)
		}
	}
}

func BenchmarkIndexKeys(b *testing.B) {
	tr := T("a12", "confname", "ICDE 2006 - Workshops")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		IndexKey(tr, ByOID)
		IndexKey(tr, ByAV)
		IndexKey(tr, ByVal)
	}
}

func BenchmarkDecompose(b *testing.B) {
	tp := NewTuple("a12").Set("title", S("Similarity...")).
		Set("confname", S("ICDE 2006 - Workshops")).Set("year", N(2006))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp.Triples()
	}
}
