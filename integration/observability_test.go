// Observability over real TCP: the -debug endpoints must serve live
// metrics, health, pprof and recent traces from a running multi-process
// cluster, and the trace tree a TCP query assembles must be
// structurally identical to the tree the same deterministic scenario
// produces on simnet — same spans in the same shape, only ids, peers
// and timings differ.
package integration

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"unistore/internal/core"
	"unistore/internal/trace"
	"unistore/internal/workload"
)

const obsQuery = `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`

func httpGet(t *testing.T, d *daemon, path string) (int, string) {
	t.Helper()
	if d.debugAddr == "" {
		t.Fatalf("proc %d has no debug listener", d.proc)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get("http://" + d.debugAddr + path)
	if err != nil {
		t.Fatalf("proc %d: GET %s: %v", d.proc, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("proc %d: GET %s: read body: %v", d.proc, path, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts one series from Prometheus text output,
// returning 0 when absent.
func metricValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// TestDebugEndpointsServeLiveCluster drives a traced 3-process cluster
// and asserts every debug endpoint answers: /healthz OK on every
// process, /metrics carrying non-zero core series, /trace/recent
// holding the query's assembled tree, and /debug/pprof/ responding.
func TestDebugEndpointsServeLiveCluster(t *testing.T) {
	requireIntegration(t)
	o := clusterOpts{procs: 3, partitions: 8, replicas: 2, page: 8, seed: 5, trace: true, debug: true}
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 30})
	daemons := startCluster(t, o)
	loadWorkload(t, daemons[0], ds)
	barrierAll(t, daemons)
	if rows := daemons[0].query(t, obsQuery); len(rows) != 5 {
		t.Fatalf("top-5 returned %d rows", len(rows))
	}

	for _, d := range daemons {
		status, body := httpGet(t, d, "/healthz")
		if status != http.StatusOK {
			t.Errorf("proc %d: /healthz = %d: %s", d.proc, status, body)
		}
		var h core.NodeHealth
		if err := json.Unmarshal([]byte(body), &h); err != nil || !h.OK {
			t.Errorf("proc %d: /healthz not OK: %s (%v)", d.proc, body, err)
		}
		if h.RoutesKnown < h.ClusterSize {
			t.Errorf("proc %d: knows %d/%d routes", d.proc, h.RoutesKnown, h.ClusterSize)
		}
	}

	// Core series must be live on every process (frames move during
	// bootstrap and replication alone); query-path series are summed
	// across processes — which peer serves a range depends on placement.
	var rangeServed, delivered float64
	for _, d := range daemons {
		status, body := httpGet(t, d, "/metrics")
		if status != http.StatusOK {
			t.Fatalf("proc %d: /metrics = %d", d.proc, status)
		}
		for _, series := range []string{"unistore_net_frames_out", "unistore_net_bytes_out", "unistore_net_frames_in"} {
			if metricValue(body, series) == 0 {
				t.Errorf("proc %d: %s is zero:\n%s", d.proc, series, body)
			}
		}
		rangeServed += metricValue(body, "unistore_pgrid_range_served")
		delivered += metricValue(body, "unistore_pgrid_delivered")
	}
	if rangeServed == 0 {
		t.Error("no process served a range branch for the ranked query")
	}
	if delivered == 0 {
		t.Error("no process delivered a routed message")
	}

	status, body := httpGet(t, daemons[0], "/trace/recent")
	if status != http.StatusOK {
		t.Fatalf("/trace/recent = %d", status)
	}
	var recent []*trace.QueryTrace
	if err := json.Unmarshal([]byte(body), &recent); err != nil {
		t.Fatalf("/trace/recent is not a trace array: %v\n%s", err, body)
	}
	if len(recent) == 0 || len(recent[0].Spans) == 0 {
		t.Fatalf("/trace/recent holds no assembled trace: %s", body)
	}
	if orphans := recent[0].Orphans(); len(orphans) != 0 {
		t.Errorf("served trace has %d orphans: %+v", len(orphans), orphans)
	}

	if status, _ := httpGet(t, daemons[0], "/debug/pprof/"); status != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", status)
	}
	if status, _ := httpGet(t, daemons[0], "/debug/pprof/cmdline"); status != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", status)
	}
}

// rangeJoinQuery is a filtered range join: the comparison narrows the
// age scan and the name scan runs as a semi-join, so its trace proves
// the range pushdown and the subject filter survive the real codec.
const rangeJoinQuery = `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`

// TestTraceStructureMatchesSimnet pins transport independence: the
// ranked top-k and a filtered range join on the 3-process TCP cluster
// assemble trace trees structurally identical (canonical form:
// kind/stage/path shape, ignoring ids, peers, timings) to the ones
// simnet assembles for the same deterministic scenario. Hedge/retry
// spans are filtered on both sides — real-clock timing may fire
// failovers simnet's virtual clock does not.
func TestTraceStructureMatchesSimnet(t *testing.T) {
	requireIntegration(t)
	o := clusterOpts{procs: 3, partitions: 8, replicas: 2, page: 8, seed: 5, trace: true, debug: true}
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 30})
	steady := func(s trace.Span) bool { return s.Flags&(trace.FlagHedge|trace.FlagRetry) == 0 }

	ref := core.NewCluster(core.Config{
		Peers: o.partitions, Replicas: o.replicas, Seed: o.seed, PageSize: o.page,
		Tracing: true,
	})
	ref.Insert(ds.Triples...)
	daemons := startCluster(t, o)
	loadWorkload(t, daemons[0], ds)
	barrierAll(t, daemons)

	for _, tc := range []struct {
		query, stage string
		rows         int
	}{
		{obsQuery, "s0:av-range", 5},
		{rangeJoinQuery, "s1:av-range[semi]", len(referenceRows(t, o, ds, []string{rangeJoinQuery})[rangeJoinQuery])},
	} {
		if _, err := ref.QueryFrom(0, tc.query); err != nil { // warm route caches like the TCP side
			t.Fatal(err)
		}
		res, err := ref.QueryFrom(0, tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("simnet reference produced no trace")
		}
		want := res.Trace.Canonical(steady)
		if !strings.Contains(want, tc.stage) {
			t.Errorf("%s: simnet trace lacks stage %s (plan %s):\n%s", tc.query, tc.stage, res.Plan, want)
		}

		// Process 0 hosts global peer 0 (round-robin placement) and
		// queries from it, matching the reference origin. Warm once,
		// then trace.
		daemons[0].query(t, tc.query)
		if rows := daemons[0].query(t, tc.query); len(rows) != tc.rows {
			t.Fatalf("%s returned %d rows over TCP, want %d", tc.query, len(rows), tc.rows)
		}
		_, body := httpGet(t, daemons[0], "/trace/recent")
		var recent []*trace.QueryTrace
		if err := json.Unmarshal([]byte(body), &recent); err != nil || len(recent) == 0 {
			t.Fatalf("/trace/recent: %v\n%s", err, body)
		}
		got := recent[0].Canonical(steady)

		if got != want {
			t.Errorf("%s: TCP trace tree differs structurally from simnet:\n--- simnet ---\n%s\n--- tcp ---\n%s", tc.query, want, got)
		}
		if orphans := recent[0].Orphans(); len(orphans) != 0 {
			t.Errorf("%s: TCP trace has %d orphans", tc.query, len(orphans))
		}
		msgs, bytes := recent[0].Totals()
		if msgs == 0 || bytes == 0 {
			t.Errorf("%s: TCP trace accounts no traffic: %d msgs / %d bytes", tc.query, msgs, bytes)
		}
	}
}
