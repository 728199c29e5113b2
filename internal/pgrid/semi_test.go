package pgrid

import (
	"fmt"
	"sort"
	"testing"

	"unistore/internal/store"
	"unistore/internal/triple"
)

// TestSubjectFilterMembership: every added OID is found (a Bloom
// filter has no false negatives), and the false-positive rate stays
// near the ~1% its fixed shape promises.
func TestSubjectFilterMembership(t *testing.T) {
	var in []string
	for i := 0; i < 2000; i++ {
		in = append(in, fmt.Sprintf("person-%05d", i))
	}
	f := NewSubjectFilter(in)
	for _, oid := range in {
		if !f.Has(oid) {
			t.Fatalf("false negative for %s", oid)
		}
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Has(fmt.Sprintf("other-%05d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Errorf("false-positive rate %.3f, want ~0.01", rate)
	}
	if empty := NewSubjectFilter(nil); empty.Has("x") || empty.WireSize() == 0 {
		t.Errorf("an empty filter must admit nothing and still encode")
	}
	var none *SubjectFilter
	if !none.Has("x") || none.WireSize() != 0 {
		t.Errorf("a nil filter must admit everything and cost nothing")
	}
}

// TestSubjectFilterRejectsMalformedWire: a filter from the wire with no
// bits, a length that is not a whole number of words, or above the cap
// is an error, never a panic — alone and inside a payload.
func TestSubjectFilterRejectsMalformedWire(t *testing.T) {
	for _, data := range [][]byte{nil, {}, make([]byte, 7), make([]byte, 9), make([]byte, 8*(filterMaxWords+1))} {
		var f SubjectFilter
		if err := f.UnmarshalBinary(data); err == nil {
			t.Errorf("%d-byte filter accepted", len(data))
		}
	}
	good, err := NewSubjectFilter([]string{"a", "b"}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var f SubjectFilter
	if err := f.UnmarshalBinary(good); err != nil || !f.Has("a") || !f.Has("b") {
		t.Errorf("well-formed filter: err %v", err)
	}
	// A zero-bit filter rides a range message: the frame is rejected.
	data, err := EncodePayload(rangeMsg{QID: 1, Subjects: &SubjectFilter{}})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := DecodePayload(data); err == nil {
		t.Errorf("zero-bit filter decoded as %+v", p)
	}
}

// TestSemiFilteredScanExact: a filtered scan returns exactly the
// entries whose OID the filter admits — ascending and descending, at
// every page size, with many entries sharing one key so a page cursor
// sits inside a bucket holding filtered-out entries.
func TestSemiFilteredScanExact(t *testing.T) {
	var oids []string
	for i := 0; i < 90; i += 3 {
		oids = append(oids, fmt.Sprintf("sf%02d", i))
	}
	f := NewSubjectFilter(oids)
	for _, ps := range []int{0, 1, 3} {
		for _, desc := range []bool{false, true} {
			net := newNet(71)
			cfg := DefaultConfig()
			cfg.PageSize = ps
			peers := BuildBalanced(net, 8, 1, cfg)
			var want []store.Entry
			for i := 0; i < 90; i++ {
				tr := triple.TN(fmt.Sprintf("sf%02d", i), "age", float64(i%4)) // 4 keys, ~22 entries each
				peers[i%8].InsertTriple(tr, 1)
				if f.Has(tr.OID) {
					want = append(want, store.Entry{Key: triple.AVKey("age", tr.Val), Triple: tr})
				}
			}
			net.Run()
			var got []store.Entry
			h := peers[0].RangeQueryPagesOrdered(triple.ByAV, triple.AVPrefixRange("age"), desc,
				func(es []store.Entry) { got = append(got, es...) }, nil, WithSubjects(f))
			res := h.Wait(0)
			label := fmt.Sprintf("page %d desc %v", ps, desc)
			if !res.Complete {
				t.Fatalf("%s: scan incomplete", label)
			}
			if g, w := entryKeysOIDs(got), entryKeysOIDs(want); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("%s: got %d entries %v\nwant %d %v", label, len(g), g, len(w), w)
			}
		}
	}
}

// entryKeysOIDs canonicalizes entries with their OIDs, which share
// keys here.
func entryKeysOIDs(es []store.Entry) []string {
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, e.Key.String()+"|"+e.Triple.OID)
	}
	sort.Strings(out)
	return out
}

// TestSemiRetryShowerKeepsFilter: a filtered scan whose branch
// envelopes die with their first-hop peers re-showers the missing
// partitions, and the re-shower still filters.
func TestSemiRetryShowerKeepsFilter(t *testing.T) {
	net, peers := loadReplicated(63, 16, 2, 64, DefaultConfig())
	q := peers[0]
	f := everyOther(64)
	var streamed []store.Entry
	h := q.RangeQueryPages(triple.ByAV, triple.AVPrefixRange("age"),
		func(es []store.Entry) { streamed = append(streamed, es...) }, nil, WithSubjects(f))
	byPath := map[string]bool{}
	for _, p := range peers {
		if p != q && len(byPath) < 3 && net.Load(p.ID()) > 0 && !byPath[p.Path().String()] {
			byPath[p.Path().String()] = true
			net.Kill(p.ID())
		}
	}
	if len(byPath) == 0 {
		t.Fatal("no branch targets in flight at kill time")
	}
	if res := h.Wait(0); !res.Complete {
		t.Fatalf("scan under churn did not complete: %+v", res)
	}
	if q.Stats().ScanRetries == 0 {
		t.Fatal("scan was never re-showered")
	}
	checkStream(t, streamed, 64, f)
}
