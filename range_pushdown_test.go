// Range-pushdown and semi-join equivalence suite: comparisons on a
// scan's value variable narrow the A#v scan to key intervals, and a
// small upstream turns the next subject-bound region scan into a
// Bloom-filtered semi-join. Both only prune what the filters and the
// join would drop, so every answer must equal the in-memory reference
// executor's (internal/algebra) — for every comparison form, for an
// attribute mixing numbers, numeric strings and other strings, at
// every page size, concurrently, and after updates and deletes.
package unistore_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"unistore"
	"unistore/internal/algebra"
	"unistore/internal/triple"
)

// mixedScores are the values of the 'score' attribute: numbers with
// their edge cases, strings that parse as numbers (compared
// numerically), and strings that do not (compared lexically).
var mixedScores = []triple.Value{
	triple.N(math.Inf(-1)), triple.N(-7), triple.N(-5), triple.N(math.Copysign(0, -1)), triple.N(0),
	triple.N(12), triple.N(29.5), triple.N(30), triple.N(31), triple.N(2000), triple.N(math.Inf(1)),
	triple.S("25"), triple.S("30"), triple.S("-6"), triple.S("!"), triple.S("2x"), triple.S("abc"), triple.S(""),
}

// pushdownData is the star dataset plus scored objects (each with a
// name) and 'src' edges that point at persons from a value position,
// several edges per person.
func pushdownData() []triple.Triple {
	data := starData()
	for i, v := range mixedScores {
		oid := fmt.Sprintf("score-%02d", i)
		data = append(data, triple.Triple{OID: oid, Attr: "score", Val: v}, triple.T(oid, "name", fmt.Sprintf("scored %02d", i)))
	}
	for i := 0; i < 45; i++ {
		data = append(data, triple.T(fmt.Sprintf("edge-%02d", i), "src", fmt.Sprintf("person-%05d", i%15)))
	}
	return data
}

// pushdownQueries cover each pushable form. semi marks the queries
// whose plan must carry a semi-join step on a paged cluster.
var pushdownQueries = []struct {
	src  string
	semi bool
}{
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s < 30}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER 30 > ?s}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s <= 30}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER 30 >= ?s}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s > 30}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER 30 < ?s}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s >= 30}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER 30 <= ?s}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s = 30}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER 30 = ?s}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s = 0}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s <= -0}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s > 0}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s < -5}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s >= -5 AND ?s < 30}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER ?s > -6 FILTER ?s <= 29.5}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER startswith(?s,'2')}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER startswith(?s,'-') AND ?s > -6.5}`},
	{src: `SELECT ?p,?s WHERE {(?p,'score',?s) FILTER startswith(?s,'a')}`},
	{src: `SELECT ?n,?s WHERE {(?p,'name',?n) (?p,'score',?s) FILTER ?s < 30}`},
	{src: `SELECT ?t WHERE {(?p,'title',?t) FILTER startswith(?t,'Paper 00')}`},
	// The workload's range join: a narrowed age scan, then a semi-join
	// over the name region.
	{src: `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`, semi: true},
	{src: `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a >= 30 AND ?a <= 45}`, semi: true},
	// An empty upstream: the semi-join scan is skipped.
	{src: `SELECT ?n WHERE {(?p,'age',?a) (?p,'name',?n) FILTER ?a > 1000}`, semi: true},
	// Subjects bound from a value position, each by several edges.
	{src: `SELECT ?e,?n WHERE {(?e,'src',?p) (?p,'name',?n)}`, semi: true},
}

// rankedPushdown is the ranked tail over a semi-join scan; its order
// is checked, not just its row set.
const rankedPushdown = `SELECT ?n WHERE {(?p,'age',?a) (?p,'name',?n) FILTER ?a < 40} ORDER BY ?n LIMIT 5`

// pushdownEdits updates and deletes scores, ages and names on the
// cluster and the reference facts alike.
func pushdownEdits(c *unistore.Cluster, data []triple.Triple) []triple.Triple {
	upd := []triple.Triple{
		{OID: "score-05", Attr: "score", Val: triple.N(-1)},
		{OID: "score-11", Attr: "score", Val: triple.S("29")},
		triple.TN("person-00003", "age", 27),
		triple.TN("person-00004", "age", 61),
	}
	del := [][2]string{{"score-07", "score"}, {"person-00005", "name"}}
	for _, tr := range upd {
		c.Update(tr)
	}
	for _, d := range del {
		c.Delete(d[0], d[1])
	}
	var out []triple.Triple
next:
	for _, tr := range data {
		for _, u := range upd {
			if tr.OID == u.OID && tr.Attr == u.Attr {
				out = append(out, u)
				continue next
			}
		}
		for _, d := range del {
			if tr.OID == d[0] && tr.Attr == d[1] {
				continue next
			}
		}
		out = append(out, tr)
	}
	return out
}

// checkPushdown runs every pushdown query from a rotating origin and
// compares it with the reference; paged clusters must also plan the
// marked queries as semi-joins.
func checkPushdown(t *testing.T, c *unistore.Cluster, data []triple.Triple, paged bool, label string) {
	t.Helper()
	for i, q := range pushdownQueries {
		res, err := c.QueryFrom(i%c.Size(), q.src)
		if err != nil {
			t.Errorf("%s: %q: %v", label, q.src, err)
			continue
		}
		if got, want := aggCanon(res.Bindings), aggCanon(aggOracle(t, q.src, data)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %q diverged (plan %s):\n got %v\nwant %v", label, q.src, res.Plan, got, want)
		}
		if paged && q.semi && !strings.Contains(res.Plan, " semi") {
			t.Errorf("%s: %q planned without a semi-join: %s", label, q.src, res.Plan)
		}
	}
	res, err := c.QueryFrom(1, rankedPushdown)
	if err != nil {
		t.Fatalf("%s: ranked: %v", label, err)
	}
	if got, want := names(res.Bindings), names(aggOracle(t, rankedPushdown, data)); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: ranked semi-join diverged (plan %s):\n got %v\nwant %v", label, res.Plan, got, want)
	}
	if paged && !strings.Contains(res.Plan, " semi") {
		t.Errorf("%s: ranked query planned without a semi-join: %s", label, res.Plan)
	}
}

func names(bs []algebra.Binding) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b["n"].String())
	}
	return out
}

func TestRangePushdownEquivalence(t *testing.T) {
	base := pushdownData()
	for _, ps := range []int{1, 3, 0} {
		c := unistore.New(unistore.Config{
			Peers: 32, Seed: 64, PageSize: ps, RangeShards: 4, ProbeParallelism: 2,
		})
		c.BulkInsert(base...)
		checkPushdown(t, c, base, ps > 0, fmt.Sprintf("page %d", ps))
		data := pushdownEdits(c, base)
		checkPushdown(t, c, data, ps > 0, fmt.Sprintf("page %d after edits", ps))
	}
	// The reference itself must not be vacuous.
	for _, q := range pushdownQueries {
		if rows := aggOracle(t, q.src, base); len(rows) == 0 && !strings.Contains(q.src, "1000") {
			t.Errorf("reference answers %q with nothing", q.src)
		}
	}
}

// TestRangePushdownConcurrent runs the suite from several goroutines
// on a concurrent simnet cluster.
func TestRangePushdownConcurrent(t *testing.T) {
	data := pushdownData()
	c := unistore.New(unistore.Config{
		Peers: 32, Seed: 65, PageSize: 3, RangeShards: 4, ProbeParallelism: 2, Concurrent: true,
	})
	defer c.Close()
	c.BulkInsert(data...)
	c.Net().Quiesce()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			checkPushdown(t, c, data, true, fmt.Sprintf("goroutine %d", g))
		}(g)
	}
	wg.Wait()
}
