package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"unistore/internal/cost"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

// startNodes launches an in-process multi-"process" cluster: several
// core.Nodes, each with its own netx transport on loopback TCP.
func startNodes(t *testing.T, procs, parts, replicas int) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, procs)
	var seeds []string
	for pi := 0; pi < procs; pi++ {
		n, err := NewNode(NodeConfig{
			Seeds: seeds, Partitions: parts, Replicas: replicas,
			Procs: procs, ProcIndex: pi, Seed: 5, PageSize: 8,
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if pi == 0 {
			seeds = []string{n.Addr()}
		}
	}
	for _, n := range nodes {
		if !n.WaitReady(10 * time.Second) {
			t.Fatalf("node %s never saw full routes: %v", n.Addr(), n.Transport().Routes())
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close(5 * time.Second)
		}
	})
	return nodes
}

func sortedRows(r *Result) []string {
	rows := make([]string, 0, len(r.Bindings))
	for _, row := range r.Rows() {
		rows = append(rows, strings.Join(row, "\t"))
	}
	sort.Strings(rows)
	return rows
}

// TestNodeMatchesSimnetCluster loads the same workload into a
// multi-transport Node cluster and a single-process simnet Cluster and
// requires identical answers for lookups, range filters, and
// aggregations — the tentpole's equivalence claim in miniature.
func TestNodeMatchesSimnetCluster(t *testing.T) {
	const procs, parts, replicas = 2, 4, 2
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 25})

	ref := NewCluster(Config{Peers: parts, Replicas: replicas, Seed: 5})
	ref.Insert(ds.Triples...)

	nodes := startNodes(t, procs, parts, replicas)
	w := nodes[0]
	for _, tr := range ds.Triples {
		if err := w.Insert(tr, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if !n.Barrier(10 * time.Second) {
			t.Fatal("barrier did not quiesce")
		}
	}

	queries := []string{
		`SELECT ?n WHERE {(?p,'name',?n)}`,
		`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`,
		`SELECT count(?a) AS ?cnt WHERE {(?p,'age',?a)}`,
		`SELECT ?conf, count(*) AS ?cnt WHERE {(?u,'published_in',?conf)} GROUP BY ?conf`,
	}
	for _, q := range queries {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		// Query from every process, through every entry point of the
		// shared front end: answers must agree regardless of which side
		// of the TCP split originates the plan.
		for ni, n := range nodes {
			for _, entry := range []struct {
				name string
				run  func(string) (*Result, error)
			}{
				{"Query", n.Query},
				{"QueryStream", func(src string) (*Result, error) { return drainStream(n, src) }},
				{"QueryWithMappings", n.QueryWithMappings},
			} {
				got, err := entry.run(q)
				if err != nil {
					t.Fatalf("%s: node %d %s: %v", q, ni, entry.name, err)
				}
				w, g := sortedRows(want), sortedRows(got)
				if strings.Join(w, "\n") != strings.Join(g, "\n") {
					t.Errorf("%s: node %d %s diverged\nsimnet (%d rows):\n%s\nnode (%d rows):\n%s",
						q, ni, entry.name, len(w), strings.Join(w, "\n"), len(g), strings.Join(g, "\n"))
				}
			}
		}
	}
}

// drainStream runs src through Node.QueryStream and collects every row.
func drainStream(n *Node, src string) (*Result, error) {
	st, err := n.QueryStream(context.Background(), src)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	res := &Result{Vars: st.Vars}
	for b, ok := st.Next(); ok; b, ok = st.Next() {
		res.Bindings = append(res.Bindings, b)
	}
	return res, nil
}

// TestNodePricesWithObservedStats: a Node's optimizer prices plans with
// the same statistics a Cluster of the same topology does — its read
// spread covers the whole replica group, and warm queries feed the
// observed routing-cache hit rate back into compilation.
func TestNodePricesWithObservedStats(t *testing.T) {
	const procs, parts, replicas = 2, 4, 2
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 25})
	ref := NewCluster(Config{Peers: parts, Replicas: replicas, Seed: 5, PageSize: 8})
	ref.Insert(ds.Triples...)
	nodes := startNodes(t, procs, parts, replicas)
	for _, tr := range ds.Triples {
		if err := nodes[0].Insert(tr, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !nodes[0].Barrier(10 * time.Second) {
		t.Fatal("barrier did not quiesce")
	}
	// Attribute-value point lookups probe the routing caches (the OIDs
	// all share one partition, so OID lookups may never leave it).
	var warm []string
	for _, tr := range ds.Triples {
		if tr.Attr == "email" && len(warm) < 8 {
			warm = append(warm, fmt.Sprintf(`SELECT ?p WHERE {(?p,'email','%s')}`, tr.Val.Str))
		}
	}
	for i := 0; i < 3; i++ {
		for _, q := range warm {
			if _, err := ref.QueryFrom(0, q); err != nil {
				t.Fatal(err)
			}
			if _, err := nodes[0].Query(q); err != nil {
				t.Fatal(err)
			}
		}
		// Let the memoized rates expire so the next compile refreshes.
		ref.Net().RunFor(2 * rateWindow)
		time.Sleep(2 * rateWindow)
	}
	for name, st := range map[string]*cost.Stats{"cluster": ref.Stats(), "node": nodes[0].Stats()} {
		if st.ReadReplicas != replicas {
			t.Errorf("%s: ReadReplicas = %d, want %d", name, st.ReadReplicas, replicas)
		}
		if st.CacheHitRate <= 0 {
			t.Errorf("%s: CacheHitRate = %v after warm queries, want > 0", name, st.CacheHitRate)
		}
	}
}

// TestNodeSurvivesPeerProcessDeath closes one node outright (the
// in-process analog of kill -9) and checks the survivor still answers
// every query completely from its replica halves.
func TestNodeSurvivesPeerProcessDeath(t *testing.T) {
	const procs, parts, replicas = 2, 4, 2
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 20})

	ref := NewCluster(Config{Peers: parts, Replicas: replicas, Seed: 5})
	ref.Insert(ds.Triples...)

	nodes := startNodes(t, procs, parts, replicas)
	for _, tr := range ds.Triples {
		if err := nodes[0].Insert(tr, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if !n.Barrier(10 * time.Second) {
			t.Fatal("barrier did not quiesce")
		}
	}
	// Hard-kill process 1: no graceful drain, just sever the transport.
	nodes[1].Transport().Close()

	q := `SELECT ?n WHERE {(?p,'name',?n)}`
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nodes[0].Query(q)
	if err != nil {
		t.Fatal(err)
	}
	w, g := sortedRows(want), sortedRows(got)
	if strings.Join(w, "\n") != strings.Join(g, "\n") {
		t.Fatalf("post-death divergence\nwant (%d rows):\n%s\ngot (%d rows):\n%s",
			len(w), strings.Join(w, "\n"), len(g), strings.Join(g, "\n"))
	}
}

// TestNodeConcurrentQueries drives the shared front end of a Node from
// several goroutines at once — queries compiling (and refreshing the
// observed rates) while an insert updates the statistics — and checks
// every answer against the simnet reference.
func TestNodeConcurrentQueries(t *testing.T) {
	const procs, parts, replicas = 2, 4, 2
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 20})
	ref := NewCluster(Config{Peers: parts, Replicas: replicas, Seed: 5})
	ref.Insert(ds.Triples...)
	nodes := startNodes(t, procs, parts, replicas)
	for _, tr := range ds.Triples {
		if err := nodes[0].Insert(tr, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !nodes[0].Barrier(10 * time.Second) {
		t.Fatal("barrier did not quiesce")
	}
	q := `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := nodes[g%procs].Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if w, gr := sortedRows(want), sortedRows(got); strings.Join(w, "\n") != strings.Join(gr, "\n") {
					t.Errorf("goroutine %d: %d rows, want %d", g, len(gr), len(w))
				}
			}
		}()
	}
	// An unrelated attribute, so the checked answer cannot change.
	if err := nodes[1].Insert(triple.T("extra-1", "nickname", "x"), 30*time.Second); err != nil {
		t.Error(err)
	}
	wg.Wait()
}
