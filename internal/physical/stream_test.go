package physical_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	. "unistore/internal/physical"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// namesCorpus builds `n` persons with distinct, sortable names.
func namesCorpus(n int) []triple.Triple {
	var ts []triple.Triple
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%03d", i)
		ts = append(ts,
			triple.T(id, "name", fmt.Sprintf("name%03d", i)),
			triple.TN(id, "age", float64(20+i%50)))
	}
	return ts
}

// runCounted executes src and returns (bindings, messages) with the
// network settled before and after, so counts attribute cleanly.
func runCounted(t *testing.T, tn *testNet, src string) ([]map[string]triple.Value, int) {
	t.Helper()
	tn.net.Settle()
	tn.net.ResetStats()
	got, ex := distributedRun(t, tn, 0, src)
	if !ex.Done() {
		t.Fatalf("%q did not complete", src)
	}
	tn.net.Settle()
	rows := make([]map[string]triple.Value, len(got))
	for i, b := range got {
		rows[i] = b
	}
	return rows, tn.net.Stats().MessagesSent
}

// TestLimitEarlyTerminationFewerMessages: with the range scan sharded,
// a LIMIT query must stop issuing shards once enough rows exist —
// strictly fewer messages than the exhaustive scan, rows a subset of
// the full result.
func TestLimitEarlyTerminationFewerMessages(t *testing.T) {
	tn := buildNet(t, 64, 21, nil)
	tn.load(namesCorpus(200))
	for _, e := range tn.engines {
		e.SetRangeShards(8)
		e.SetParallelism(2)
	}
	full, fullMsgs := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)}`)
	limited, limMsgs := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} LIMIT 3`)
	if len(limited) != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", len(limited))
	}
	fullSet := map[string]bool{}
	for _, b := range full {
		fullSet[b["n"].Str] = true
	}
	for _, b := range limited {
		if !fullSet[b["n"].Str] {
			t.Fatalf("limited run fabricated %q", b["n"].Str)
		}
	}
	if limMsgs >= fullMsgs {
		t.Errorf("LIMIT used %d messages, full scan %d — early-out must stop the shower", limMsgs, fullMsgs)
	}
	t.Logf("messages: limit=%d full=%d", limMsgs, fullMsgs)
}

// TestTopKStreamingOrderedAndCheaper: an ORDER BY + LIMIT over the
// scanned value variable streams in ranking order (order-preserving
// hash), so the executor must return exactly the reference top-k while
// skipping the tail of the shard sequence.
func TestTopKStreamingOrderedAndCheaper(t *testing.T) {
	tn := buildNet(t, 64, 22, nil)
	tn.load(namesCorpus(200))
	for _, e := range tn.engines {
		e.SetRangeShards(8)
		e.SetParallelism(2)
	}
	_, fullMsgs := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n`)

	src := `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`
	want := canon(referenceRun(t, src, tn.triples))
	got, topMsgs := runCounted(t, tn, src)
	var names []string
	for _, b := range got {
		names = append(names, b["n"].Str)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("top-k not in order: %v", names)
		}
	}
	gotB := make([]map[string]triple.Value, len(got))
	copy(gotB, got)
	gotCanon := canonMaps(gotB)
	if !reflect.DeepEqual(gotCanon, want) {
		t.Fatalf("top-k mismatch:\n got %v\nwant %v", gotCanon, want)
	}
	if topMsgs >= fullMsgs {
		t.Errorf("top-k used %d messages, full ordered scan %d", topMsgs, fullMsgs)
	}
	t.Logf("messages: top-k=%d full=%d", topMsgs, fullMsgs)

	// DESC streams the shard sequence in reverse key order.
	desc, _ := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n DESC LIMIT 4`)
	if len(desc) != 4 || desc[0]["n"].Str != "name199" || desc[3]["n"].Str != "name196" {
		t.Fatalf("DESC top-4 = %v", desc)
	}
}

func canonMaps(rows []map[string]triple.Value) []string {
	bs := make([]map[string]triple.Value, len(rows))
	copy(bs, rows)
	var out []string
	for _, b := range bs {
		out = append(out, fmt.Sprintf("n=%s;", b["n"].Lexical()))
	}
	// Mirror canon()'s sorted rendering for single-var rows.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestEarlyOutReleasesPendingOps: after an early-terminated query and
// a settled network, no pending operation may linger at any peer.
func TestEarlyOutReleasesPendingOps(t *testing.T) {
	tn := buildNet(t, 32, 23, nil)
	tn.load(namesCorpus(100))
	for _, e := range tn.engines {
		e.SetRangeShards(8)
		e.SetParallelism(2)
	}
	_, _ = runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} LIMIT 2`)
	for i, p := range tn.peers {
		if n := p.PendingOps(); n != 0 {
			t.Errorf("peer %d holds %d pending ops after early-out", i, n)
		}
	}
}

// TestContextCancelStopsQuery: a canceled context terminates the query
// immediately with partial (possibly empty) results and releases every
// pending operation.
func TestContextCancelStopsQuery(t *testing.T) {
	tn := buildNet(t, 32, 24, nil)
	tn.load(namesCorpus(100))
	q, err := vql.ParseQuery(`SELECT ?n WHERE {(?p,'name',?n)}`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first response can arrive
	cur := tn.engines[0].Open(ctx, plan)
	var bs []map[string]triple.Value
	for b, ok := cur.Next(); ok; b, ok = cur.Next() {
		bs = append(bs, b)
	}
	ex := cur.Exec()
	if !ex.Done() {
		t.Fatal("canceled query must complete")
	}
	if len(bs) != 0 {
		t.Fatalf("canceled-before-start query returned %d rows", len(bs))
	}
	tn.net.Settle()
	for i, p := range tn.peers {
		if n := p.PendingOps(); n != 0 {
			t.Errorf("peer %d holds %d pending ops after cancel", i, n)
		}
	}
	// The engine must remain usable afterwards.
	src := `SELECT ?n WHERE {(?p,'name',?n)} LIMIT 1`
	got, ex2 := distributedRun(t, tn, 0, src)
	if !ex2.Done() || len(got) != 1 {
		t.Fatalf("engine unusable after cancel: done=%v rows=%d", ex2.Done(), len(got))
	}
}

// TestMaterializeTailBaselineEquivalent: the benchmark baseline knob
// must not change results, only traffic.
func TestMaterializeTailBaselineEquivalent(t *testing.T) {
	tn := buildNet(t, 64, 25, nil)
	tn.load(namesCorpus(120))
	for _, e := range tn.engines {
		e.SetRangeShards(8)
	}
	src := `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 6`
	stream, streamMsgs := runCounted(t, tn, src)
	tn.engines[0].SetMaterializeTail(true)
	mat, matMsgs := runCounted(t, tn, src)
	tn.engines[0].SetMaterializeTail(false)
	if !reflect.DeepEqual(canonMaps(stream), canonMaps(mat)) {
		t.Fatalf("baseline diverged: %v vs %v", stream, mat)
	}
	if streamMsgs >= matMsgs {
		t.Errorf("streaming used %d messages, materializing baseline %d", streamMsgs, matMsgs)
	}
	t.Logf("messages: streaming=%d materializing=%d", streamMsgs, matMsgs)
}

// TestCursorStreamsBeforeCompletion: the pull cursor must yield the
// first rows of a sharded scan while later shards are still unissued,
// and Close must cancel the remainder.
func TestCursorStreamsBeforeCompletion(t *testing.T) {
	tn := buildNet(t, 64, 26, nil)
	tn.load(namesCorpus(150))
	eng := tn.engines[0]
	eng.SetRangeShards(8)
	eng.SetParallelism(1)
	q, err := vql.ParseQuery(`SELECT ?n WHERE {(?p,'name',?n)}`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	cur := eng.Open(context.Background(), plan)
	row, ok := cur.Next()
	if !ok || row["n"].Str == "" {
		t.Fatalf("cursor yielded no first row: %v ok=%v", row, ok)
	}
	if cur.Exec().Done() {
		t.Error("query must still be running after the first row of a sequential sharded scan")
	}
	cur.Close()
	if !cur.Exec().Done() {
		t.Error("Close must terminate the query")
	}
	tn.net.Settle()
	for i, p := range tn.peers {
		if n := p.PendingOps(); n != 0 {
			t.Errorf("peer %d holds %d pending ops after cursor close", i, n)
		}
	}
}
