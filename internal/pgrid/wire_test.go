package pgrid

import (
	"testing"

	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// samplePayloads returns one representative instance of every overlay
// message payload, exercising the optional riders (agg specs, paging
// continuations, replica lists) that plain zero values would skip.
func samplePayloads() []any {
	k := keys.FromBits("10110")
	r := keys.Range{Lo: keys.FromBits("10"), Hi: keys.FromBits("11"), HiOpen: true}
	e := store.Entry{
		Kind:    triple.ByAV,
		Key:     k,
		Triple:  triple.Triple{OID: "o1", Attr: "name", Val: triple.S("miller")},
		Version: 7,
	}
	spec := &agg.Spec{
		GroupBy: []string{"a"},
		Items:   []agg.Item{{Func: agg.Count, Var: "v", Out: "n"}},
		Pat:     [3]agg.Term{agg.VarTerm("o"), agg.LitTerm(triple.S("age")), agg.VarTerm("v")},
	}
	cont := pageCont{Kind: 1, R: r, SkipAtLo: 2, Share: 1 << 20, PageSize: 3,
		Hops: 2, Desc: true, Cursor: k, Agg: spec, AggAfter: "g1"}
	subjects := NewSubjectFilter([]string{"o1", "o2", "o3"})
	semiCont := pageCont{Kind: 1, R: r, SkipAtLo: 1, Share: 1 << 10, PageSize: 4, Hops: 1,
		Subjects: subjects, Seq: 2, StreamPath: k}
	return []any{
		routeEnvelope{Target: k, Hops: 3, Inner: insertReq{Entry: e, QID: 9, Origin: 4, Seq: 1}},
		routeEnvelope{Target: k, Hops: 1, Inner: lookupReq{QID: 2, Origin: 0, Kind: 1, Key: k, Agg: spec}},
		routeEnvelope{Target: keys.Empty, Hops: 0, Inner: pageReq{QID: 5, Origin: 2, Cont: cont}},
		insertReq{Entry: e, QID: 1, Origin: 3, Seq: 2},
		lookupReq{QID: 4, Origin: 1, Kind: 0, Key: k},
		multiLookupReq{QID: 6, Origin: 2, Kind: 1, Keys: []keys.Key{k, keys.FromBits("01")}, Agg: spec},
		rangeMsg{QID: 7, Origin: 0, Kind: 2, R: r, Level: 1, Share: 512, Hops: 1,
			Probe: true, PageSize: 4, Desc: true, Agg: spec},
		pageReq{QID: 8, Origin: 5, Cont: cont},
		queryResp{QID: 9, Entries: []store.Entry{e}, Count: 1, Share: 256, Hops: 2,
			From: 6, Path: k, Replicas: []Ref{{ID: 7, Path: k}}, Probes: 2,
			ProbeKeys: []keys.Key{k}, Final: true, Cont: &cont,
			AggData: []byte{1, 2, 3}, AggGroups: 1},
		ackMsg{QID: 10, Hops: 4, Seq: 2},
		gossipMsg{Entries: []store.Entry{e}},
		antiEntropyMsg{Entries: []store.Entry{e}, Reply: true},
		digestMsg{Buckets: map[string]bucketSum{"1/0110": {Count: 3, MaxVersion: 9, Hash: 0xdead}}, Reply: true},
		digestPullMsg{Buckets: []string{"1/0110", "2/01"}},
		exchangeMsg{Path: k, Refs: [][]Ref{{{ID: 1, Path: k}}, nil}, Replicas: []Ref{{ID: 2, Path: k}},
			Entries: []store.Entry{e}, IsReply: true, SplitBit: 1},
		xferMsg{Entries: []store.Entry{e}},
		appMsg{Payload: xferMsg{Entries: []store.Entry{e}}, Hops: 2},
		// Semi-join filtered scans: the subject filter rides the shower
		// message, the pull and the continuation of a partial page.
		rangeMsg{QID: 11, Origin: 3, Kind: 1, R: r, Share: 64, PageSize: 4, Subjects: subjects},
		pageReq{QID: 12, Origin: 3, Cont: semiCont},
		queryResp{QID: 13, Entries: []store.Entry{e}, Count: 1, From: 2, Path: k, Cont: &semiCont, PageSeq: 1},
	}
}

func TestWireRoundTrip(t *testing.T) {
	for i, p := range samplePayloads() {
		data, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("payload %d (%T): encode: %v", i, p, err)
		}
		got, err := DecodePayload(data)
		if err != nil {
			t.Fatalf("payload %d (%T): decode: %v", i, p, err)
		}
		if err := equalPayload(p, got); err != nil {
			t.Errorf("payload %d (%T): round-trip mismatch: %v", i, p, err)
		}
	}
}

// equalPayload compares a decoded payload against the original through
// re-encoding: gob is deterministic for a fixed type registry, so two
// equal values encode to identical bytes (map iteration order is the
// one exception, covered by the single-entry digest sample).
func equalPayload(want, got any) error {
	wb, err := EncodePayload(want)
	if err != nil {
		return err
	}
	gb, err := EncodePayload(got)
	if err != nil {
		return err
	}
	if string(wb) != string(gb) {
		return errMismatch
	}
	return nil
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "re-encoded bytes differ" }

func TestWireDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{0xff, 0xff, 0xff, 0xff},
		[]byte("not a gob stream at all"),
	}
	for i, c := range cases {
		if _, err := DecodePayload(c); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func TestWireDecodeTruncated(t *testing.T) {
	data, err := EncodePayload(samplePayloads()[8]) // the large queryResp
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(data); cut += 7 {
		if _, err := DecodePayload(data[:cut]); err == nil {
			t.Errorf("truncation at %d/%d decoded without error", cut, len(data))
		}
	}
}
