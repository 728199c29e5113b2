package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"unistore/internal/algebra"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// query is one generated VQL query of a named class. Ordered queries
// (ORDER BY … LIMIT) must return rows in the reference order; the
// others must return the reference multiset.
type query struct {
	class   string
	src     string
	ordered bool
}

// pointQuery builds a selective query on person i of a
// workload.Generate dataset (OIDs person-%05d, emails p%d@example.org).
func pointQuery(class string, i int) query {
	oid := fmt.Sprintf("person-%05d", i)
	email := fmt.Sprintf("p%d@example.org", i)
	switch class {
	case "oid":
		return query{class: class, src: fmt.Sprintf(`SELECT ?n,?a WHERE {('%s','name',?n) ('%s','age',?a)}`, oid, oid)}
	case "av":
		return query{class: class, src: fmt.Sprintf(`SELECT ?p WHERE {(?p,'email','%s')}`, email)}
	case "join":
		return query{class: class, src: fmt.Sprintf(`SELECT ?n,?a WHERE {(?p,'email','%s') (?p,'name',?n) (?p,'age',?a)}`, email)}
	}
	panic("perfbench: unknown point query class " + class)
}

// topkQuery is the ranked top-5 over the name index; names are
// unique, so the order is fully determined.
var topkQuery = query{class: "topk", ordered: true, src: `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`}

// analyticQuery builds one data-heavy, many-partition query.
func analyticQuery(class string) query {
	switch class {
	case "groupby":
		return query{class: class, src: `SELECT ?c, count(*) AS ?n WHERE {(?u,'published_in',?c)} GROUP BY ?c`}
	case "rangejoin":
		return query{class: class, src: `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`}
	case "scanjoin":
		return query{class: class, src: `SELECT ?t,?c WHERE {(?u,'title',?t) (?u,'published_in',?c)}`}
	case "topk":
		return topkQuery
	}
	panic("perfbench: unknown analytic query class " + class)
}

// lookupPool is a seeded pool of selective queries on a dataset's
// persons: poolPerClass variants of each point class, plus the top-k
// query. Clients draw their sequences from it, so every answer can be
// checked against a precomputed reference.
const poolPerClass = 128

// lookupCycle is the class order a tcp-lookup client repeats: half of
// its queries are oid reads, so the overall median falls inside one
// class's distribution rather than in the gap between two.
var lookupCycle = []string{"oid", "av", "oid", "join", "oid", "topk"}

func lookupPool(rng *rand.Rand, persons int) map[string][]query {
	pool := map[string][]query{"topk": {topkQuery}}
	for _, c := range []string{"oid", "av", "join"} {
		for k := 0; k < poolPerClass; k++ {
			pool[c] = append(pool[c], pointQuery(c, rng.Intn(persons)))
		}
	}
	return pool
}

// lookupNext draws the i-th query of a client's sequence.
func lookupNext(rng *rand.Rand, pool map[string][]query, i int) query {
	c := pool[lookupCycle[i%len(lookupCycle)]]
	return c[rng.Intn(len(c))]
}

// reference answers queries with the internal/algebra in-memory
// executor over the generated dataset, caching by query text.
type reference struct {
	src   algebra.TripleSource
	mu    sync.Mutex
	cache map[string][]string
}

func newReference(data []triple.Triple) *reference {
	return &reference{src: &algebra.MemSource{Triples: data}, cache: map[string][]string{}}
}

func (ref *reference) answer(q query) ([]string, error) {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	if rows, ok := ref.cache[q.src]; ok {
		return rows, nil
	}
	parsed, err := vql.ParseQuery(q.src)
	if err != nil {
		return nil, fmt.Errorf("reference parse %q: %w", q.src, err)
	}
	lp, err := algebra.Build(parsed)
	if err != nil {
		return nil, fmt.Errorf("reference build %q: %w", q.src, err)
	}
	rows := canonRows(algebra.Execute(lp, ref.src), q.ordered)
	ref.cache[q.src] = rows
	return rows, nil
}

// check compares a distributed answer with the reference.
func (ref *reference) check(q query, got []algebra.Binding) error {
	want, err := ref.answer(q)
	if err != nil {
		return err
	}
	g := canonRows(got, q.ordered)
	if len(g) != len(want) {
		return fmt.Errorf("%s query %q: %d rows, reference has %d", q.class, q.src, len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return fmt.Errorf("%s query %q: row %d is %q, reference has %q", q.class, q.src, i, g[i], want[i])
		}
	}
	return nil
}

// canonRows renders bindings as "var=lexical;…" rows, sorted unless the
// query's order is part of its answer.
func canonRows(bs []algebra.Binding, ordered bool) []string {
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		vars := make([]string, 0, len(b))
		for k := range b {
			vars = append(vars, k)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			sb.WriteString(v)
			sb.WriteByte('=')
			sb.WriteString(b[v].Lexical())
			sb.WriteByte(';')
		}
		out = append(out, sb.String())
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// checksum folds answers into one value, for determinism checks.
type checksum struct{ h uint64 }

func (c *checksum) add(bs []algebra.Binding, ordered bool) {
	c.addString(strings.Join(canonRows(bs, ordered), "\n"))
}

func (c *checksum) addString(s string) {
	f := fnv.New64a()
	fmt.Fprintf(f, "%d|%s", c.h, s)
	c.h = f.Sum64()
}
