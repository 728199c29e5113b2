package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/store"
	"unistore/internal/store/wal"
	"unistore/internal/triple"
)

// walOps is how many records each WAL microbenchmark appends.
const walOps = 400

// layerMicrobench times the single-layer calls of the traced run on the
// workload's own dataset, each under its own span of one "microbench"
// op: store put/lookup/scan on a fresh store, index-key derivation,
// GROUP BY aggregation, and WAL append and fsync on a standalone log.
// extra runs cluster-bound microbenchmarks (pgrid lookups) under the
// same root.
func layerMicrobench(r *run, data []triple.Triple, extra func(parent spanRef, n int)) {
	root := r.tr.root("microbench")
	defer root.end()

	st := store.New()
	s := root.child("store.put")
	t0 := time.Now()
	for _, kind := range triple.AllIndexKinds {
		for i, tr := range data {
			st.PutEntry(kind, tr, uint64(i+1))
		}
	}
	r.set("store.put_ns", perOp(time.Since(t0), 3*len(data)))
	s.end()

	// The store keeps one fact per (OID, attribute), the latest version.
	var oids []string
	seen := map[string]bool{}
	facts := map[[2]string]bool{}
	for _, tr := range data {
		facts[[2]string{tr.OID, tr.Attr}] = true
		if !seen[tr.OID] {
			seen[tr.OID] = true
			oids = append(oids, tr.OID)
		}
	}
	s = root.child("store.lookup")
	t0 = time.Now()
	found := 0
	for _, oid := range oids {
		found += len(st.Lookup(triple.ByOID, triple.OIDKey(oid)))
	}
	r.set("store.lookup_ns", perOp(time.Since(t0), len(oids)))
	s.end()
	if found != len(facts) {
		r.fail("store lookup microbench found %d of %d facts", found, len(facts))
	}

	s = root.child("store.scan")
	t0 = time.Now()
	scanned := 0
	for _, kind := range triple.AllIndexKinds {
		st.Scan(kind, keys.Range{}, func(store.Entry) bool { scanned++; return true })
	}
	r.set("store.scan_ns_per_entry", perOp(time.Since(t0), scanned))
	s.end()

	s = root.child("triple.index_key")
	t0 = time.Now()
	bits := 0
	for _, tr := range data {
		for _, kind := range triple.AllIndexKinds {
			bits += triple.IndexKey(tr, kind).Len()
		}
	}
	r.set("triple.index_key_ns", perOp(time.Since(t0), 3*len(data)))
	s.end()
	if bits == 0 {
		r.fail("index keys are empty")
	}

	// The GROUP BY spec of the groupby class, fed the triples a peer
	// serving the published_in range would match.
	spec := &agg.Spec{
		GroupBy: []string{"c"},
		Items:   []agg.Item{{Func: agg.Count, Out: "n"}},
		Pat:     [3]agg.Term{agg.VarTerm("u"), agg.LitTerm(triple.S("published_in")), agg.VarTerm("c")},
	}
	var pubs []triple.Triple
	for _, tr := range data {
		if tr.Attr == "published_in" {
			pubs = append(pubs, tr)
		}
	}
	s = root.child("agg.add")
	tbl := agg.NewTable(spec)
	t0 = time.Now()
	for _, tr := range pubs {
		tbl.AddTriple(tr)
	}
	r.set("agg.add_ns", perOp(time.Since(t0), len(pubs)))
	s.end()

	appendUS, syncUS, err := walMicrobench(r, root, data)
	if err != nil {
		r.fail("wal microbench: %v", err)
	}
	r.set("wal.append_us", appendUS)
	r.set("wal.sync_us", syncUS)

	if extra != nil {
		extra(root, 300)
	}
}

// walMicrobench appends walOps index entries to a standalone log under
// tcp-ingest's fsync policy, then times explicit fsyncs of single
// appended records on a second log.
func walMicrobench(r *run, root spanRef, data []triple.Triple) (appendUS, syncUS float64, err error) {
	dir, err := os.MkdirTemp(r.work, "walbench-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	entry := func(i int) store.Entry {
		tr := data[i%len(data)]
		return store.Entry{Kind: triple.ByOID, Key: triple.IndexKey(tr, triple.ByOID), Triple: tr, Version: uint64(i + 1)}
	}

	db, err := wal.Open(filepath.Join(dir, "policy"), store.New(), wal.Options{Sync: ingestPolicy})
	if err != nil {
		return 0, 0, err
	}
	s := root.child("wal.append")
	t0 := time.Now()
	for i := 0; i < walOps; i++ {
		if err := db.LogApply(entry(i)); err != nil {
			s.end()
			db.Close()
			return 0, 0, fmt.Errorf("append: %w", err)
		}
	}
	appendUS = us(time.Since(t0)) / walOps
	s.end()
	if err := db.Close(); err != nil {
		return 0, 0, err
	}

	db, err = wal.Open(filepath.Join(dir, "explicit"), store.New(), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		return 0, 0, err
	}
	var total time.Duration
	for i := 0; i < walOps/4; i++ {
		if err := db.LogApply(entry(i)); err != nil {
			db.Close()
			return 0, 0, fmt.Errorf("append: %w", err)
		}
		s := root.child("wal.sync")
		t0 := time.Now()
		err := db.Sync()
		total += time.Since(t0)
		s.end()
		if err != nil {
			db.Close()
			return 0, 0, fmt.Errorf("sync: %w", err)
		}
	}
	syncUS = us(total) / float64(walOps/4)
	return appendUS, syncUS, db.Close()
}

func perOp(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
