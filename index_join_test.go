// DHT index-join equivalence suite: star queries whose patterns share a
// subject — a ground OID, or a variable bound upstream — resolve
// through fused OID-index probes, and must return exactly what the
// in-memory reference executor (internal/algebra) returns over the
// same facts: at every page size, after updates and deletes, with
// patterns matching several triples of one subject, and from
// concurrent goroutines.
package unistore_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"unistore"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

// starQueries are the fused-probe shapes. Each must plan at least one
// OID lookup carrying more than one pattern.
var starQueries = []string{
	// Bound star: one exact A#v lookup binds ?p.
	`SELECT ?n,?a WHERE {(?p,'email','p7@example.org') (?p,'name',?n) (?p,'age',?a)}`,
	// Bound star over several subjects.
	`SELECT ?p,?n,?e WHERE {(?p,'age',30) (?p,'name',?n) (?p,'email',?e)}`,
	// Bound star with a filter on a fused pattern's variable.
	`SELECT ?n,?c WHERE {(?p,'age',41) (?p,'name',?n) (?p,'num_of_pubs',?c) FILTER ?c >= 2}`,
	// Ground star.
	`SELECT ?n,?a WHERE {('person-00007','name',?n) ('person-00007','age',?a)}`,
	// A variable attribute matches every triple of the subject: a
	// cross product against the name.
	`SELECT ?k,?v,?n WHERE {(?p,'email','p7@example.org') (?p,'name',?n) (?p,?k,?v)}`,
	// Patterns sharing a value variable: attribute pairs of equal value
	// (every attribute pairs with itself).
	`SELECT ?k,?j WHERE {('person-00011',?k,?v) ('person-00011',?j,?v)}`,
	// The deleted name leaves person 11's bound star empty.
	`SELECT ?n,?a WHERE {(?p,'email','p11@example.org') (?p,'name',?n) (?p,'age',?a)}`,
}

// starData is the generated dataset minus has_published: the store
// keeps one value per (OID, attribute), so the reference must see the
// same single-valued facts.
func starData() []triple.Triple {
	ds := workload.Generate(workload.Options{Seed: 61, Persons: 120})
	var out []triple.Triple
	for _, tr := range ds.Triples {
		if tr.Attr != "has_published" {
			out = append(out, tr)
		}
	}
	return out
}

// starEdits updates person 7's age and deletes person 11's name, on
// the cluster and on the reference facts alike.
func starEdits(c *unistore.Cluster, data []triple.Triple) []triple.Triple {
	upd := unistore.TN("person-00007", "age", 99)
	c.Update(upd)
	c.Delete("person-00011", "name")
	var out []triple.Triple
	for _, tr := range data {
		switch {
		case tr.OID == upd.OID && tr.Attr == upd.Attr:
			out = append(out, upd)
		case tr.OID == "person-00011" && tr.Attr == "name":
		default:
			out = append(out, tr)
		}
	}
	return out
}

// checkStar runs one star query and compares it with the reference
// rows want; it also requires the plan to carry a fused OID probe.
func checkStar(t *testing.T, c *unistore.Cluster, peer int, src string, want []string, label string) {
	t.Helper()
	res, err := c.QueryFrom(peer, src)
	if err != nil {
		t.Errorf("%s: %q: %v", label, src, err)
		return
	}
	if !strings.Contains(res.Plan, "oid-lookup") || !strings.Contains(res.Plan, ")+(") {
		t.Errorf("%s: %q planned without a fused OID probe: %s", label, src, res.Plan)
	}
	if got := aggCanon(res.Bindings); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: %q diverged (plan %s):\n got %v\nwant %v", label, src, res.Plan, got, want)
	}
}

func TestSubjectProbeEquivalence(t *testing.T) {
	base := starData()
	var data []triple.Triple
	for _, ps := range []int{1, 3, 0} {
		c := unistore.New(unistore.Config{
			Peers: 32, Seed: 62, PageSize: ps, RangeShards: 4, ProbeParallelism: 2,
		})
		c.BulkInsert(base...)
		data = starEdits(c, base)
		for i, src := range starQueries {
			checkStar(t, c, i%c.Size(), src, aggCanon(aggOracle(t, src, data)), fmt.Sprintf("page %d", ps))
		}
	}
	// The reference itself must not be vacuous (bar the deleted star).
	for _, src := range starQueries[:len(starQueries)-1] {
		if len(aggOracle(t, src, data)) == 0 {
			t.Errorf("reference answers %q with nothing", src)
		}
	}
}

// TestSubjectProbeConcurrent runs the star queries from several
// goroutines on a concurrent simnet cluster.
func TestSubjectProbeConcurrent(t *testing.T) {
	data := starData()
	c := unistore.New(unistore.Config{
		Peers: 32, Seed: 63, PageSize: 3, RangeShards: 4, ProbeParallelism: 2, Concurrent: true,
	})
	defer c.Close()
	c.BulkInsert(data...)
	c.Net().Quiesce()
	want := make([][]string, len(starQueries))
	for i, src := range starQueries {
		want[i] = aggCanon(aggOracle(t, src, data))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, src := range starQueries {
				checkStar(t, c, (g+i)%c.Size(), src, want[i], "concurrent")
			}
		}(g)
	}
	wg.Wait()
}
