package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"unistore/internal/algebra"
	"unistore/internal/cost"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/schema"
	"unistore/internal/simnet"
	"unistore/internal/trace"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// front is the query front end above the overlay, shared by Cluster
// (simnet) and Node (netx TCP): the hosted peers with one engine each,
// the cost-based optimizer and its statistics, the metrics registry and
// trace log, and the one query path both transports run — compile
// under the observed overlay rates, execute, assemble the Result.
type front struct {
	peers   []*pgrid.Peer
	engines []*physical.Engine
	opt     *optimizer.Optimizer
	stats   *cost.Stats
	// statsMu guards the optimizer statistics: ingest paths write them
	// and query optimization (including per-host re-optimization of
	// migrated plans) reads them, possibly from many goroutines.
	statsMu sync.RWMutex
	// parallelism and shards tune every hosted engine's fan-out.
	parallelism, shards int
	// origin picks the hosted peer a query without an explicit origin
	// starts from; nil means the first hosted peer.
	origin func() int
	// rates memoizes the O(peers) routing-cache counter aggregation so
	// repeated compilations at large N don't rescan every peer; entries
	// expire after rateWindow of transport time.
	ratesMu   sync.Mutex
	ratesOK   bool
	ratesAt   time.Duration
	hitRate   float64
	retryRate float64
	probeRTT  time.Duration
	pressure  float64
	// reg mirrors peer (and transport) counters under stable dotted
	// names; tlog retains recent query traces for introspection.
	reg  *trace.Registry
	tlog *trace.TraceLog
	// slowQuery, when positive, logs (via logf) the trace tree of any
	// traced query slower than this wall-clock threshold.
	slowQuery time.Duration
	logf      func(format string, args ...any)
}

// init wires the front end over the hosted peers of a cluster of
// partitions × replicas.
func (f *front) init(peers []*pgrid.Peer, partitions, replicas, readReplicas, pageSize int, opts optimizer.Options) {
	f.stats = cost.DefaultStats(partitions)
	f.stats.Replicas = replicas
	f.stats.TotalTriples = 0
	f.stats.PageSize = pageSize
	f.stats.ReadReplicas = effectiveReadReplicas(replicas, readReplicas)
	f.opt = optimizer.New(f.stats, opts)
	f.reg = trace.NewRegistry()
	f.tlog = trace.NewTraceLog(0)
	registerPeerMetrics(f.reg, func() []*pgrid.Peer { return f.peers })
	for _, p := range peers {
		f.addPeer(p)
	}
}

// addPeer hosts p with its own query engine and returns its index.
func (f *front) addPeer(p *pgrid.Peer) int {
	eng := physical.NewEngine(p, reopt{f})
	eng.SetParallelism(f.parallelism)
	eng.SetRangeShards(f.shards)
	f.peers = append(f.peers, p)
	f.engines = append(f.engines, eng)
	return len(f.peers) - 1
}

// reopt adapts the optimizer's Rechoose to the stats lock: hosted-plan
// re-optimization runs on transport goroutines and must not race with
// concurrent ingest updating the statistics.
type reopt struct{ f *front }

func (r reopt) Rechoose(steps []physical.Step, tail physical.Tail, bindingCount int, peer *pgrid.Peer) []physical.Step {
	r.f.statsMu.RLock()
	defer r.f.statsMu.RUnlock()
	return r.f.opt.Rechoose(steps, tail, bindingCount, peer)
}

// effectiveReadReplicas is the replica count the read path can
// actually spread over: the configured bound (0 = every replica)
// clipped to the replica group size.
func effectiveReadReplicas(replicas, bound int) int {
	r := replicas
	if bound > 0 && bound < r {
		r = bound
	}
	if r < 1 {
		r = 1
	}
	return r
}

// pick returns the origin of a query issued without one.
func (f *front) pick() int {
	if f.origin == nil {
		return 0
	}
	return f.origin()
}

// Engine exposes the query engine attached to one hosted peer
// (benchmarks and tests tune fan-out windows through it).
func (f *front) Engine(peerIdx int) *physical.Engine {
	return f.engines[peerIdx%len(f.engines)]
}

// Peers returns the hosted overlay peers.
func (f *front) Peers() []*pgrid.Peer { return f.peers }

// Stats returns the optimizer's statistics snapshot.
func (f *front) Stats() *cost.Stats { return f.stats }

// Registry returns the unified metrics registry. Snapshot it for
// point-in-time values, or take before/after Snapshot.Sub deltas around
// a query for per-query attribution.
func (f *front) Registry() *trace.Registry { return f.reg }

// TraceLog returns the bounded buffer of recently completed query
// traces (always non-nil; empty unless tracing is on).
func (f *front) TraceLog() *trace.TraceLog { return f.tlog }

// noteInserted updates the optimizer statistics for freshly ingested
// triples; the stats lock orders it against concurrent optimization.
func (f *front) noteInserted(ts ...triple.Triple) {
	f.statsMu.Lock()
	for _, tr := range ts {
		f.stats.TriplesPerAttr[tr.Attr]++
	}
	f.stats.TotalTriples += len(ts)
	f.statsMu.Unlock()
}

// --- Querying ----------------------------------------------------------------

// Result is a completed query: bindings plus execution metrics.
type Result struct {
	Bindings []algebra.Binding
	Vars     []string
	Elapsed  time.Duration // transport time (simulated on simnet)
	// TimeToFirst is the time until the first result row was available
	// from the streaming pipeline (equal to Elapsed for blocking tails
	// such as skyline and full sorts).
	TimeToFirst time.Duration
	// Messages is the overlay traffic attributed to this query. On a
	// deterministic simulator it is the network's sent-counter delta
	// across the query — exact, since nothing else runs meanwhile.
	// Elsewhere (concurrent simnet, TCP) there is no exact counter to
	// difference: it is the trace's message total when the query was
	// traced, and 0 when not.
	Messages int
	Hops     int
	Plan     string
	// Trace is the assembled end-to-end trace of this query — the
	// synthetic query root, one span per pipeline stage, and every
	// overlay span the traced operations produced (including spans
	// shipped home by migrated plan remainders). Nil unless tracing is
	// on.
	Trace *trace.QueryTrace
}

// Rows renders the bindings as string rows following Vars order — the
// demo UI's result tab.
func (r *Result) Rows() [][]string {
	rows := make([][]string, 0, len(r.Bindings))
	for _, b := range r.Bindings {
		row := make([]string, len(r.Vars))
		for i, v := range r.Vars {
			if val, ok := b[v]; ok {
				row[i] = val.String()
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Query parses and executes VQL: on a Cluster from a random peer, on a
// Node from its first hosted peer. Traced queries land in the trace
// log, and — past the slow-query threshold — in the slow-query log.
func (f *front) Query(src string) (*Result, error) {
	return f.QueryFrom(f.pick(), src)
}

// QueryFrom executes VQL originating at a specific hosted peer.
func (f *front) QueryFrom(peerIdx int, src string) (*Result, error) {
	q, err := vql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return f.run(peerIdx, q)
}

// run compiles a parsed query, executes it from hosted peer peerIdx
// and assembles its Result.
func (f *front) run(peerIdx int, q *vql.Query) (*Result, error) {
	plan, err := f.compile(q)
	if err != nil {
		return nil, err
	}
	before, exact := f.sentCounter()
	start := time.Now()
	bs, ex := f.Engine(peerIdx).RunPlan(plan)
	wall := time.Since(start)
	res := &Result{
		Bindings:    bs,
		Vars:        resultVars(q),
		Elapsed:     ex.Elapsed(),
		TimeToFirst: ex.TimeToFirst(),
		Hops:        ex.MaxHops(),
		Plan:        plan.String(),
		Trace:       ex.Trace(),
	}
	if exact {
		after, _ := f.sentCounter()
		res.Messages = after - before
	} else if res.Trace != nil {
		res.Messages, _ = res.Trace.Totals()
	}
	if res.Trace != nil {
		f.tlog.Add(res.Trace)
		if f.slowQuery > 0 && wall >= f.slowQuery && f.logf != nil {
			f.logSlow(res, plan, wall)
		}
	}
	return res, nil
}

// sentCounter reads the network-wide sent-message counter when one
// exists that a single query's delta is exact against: a simulator in
// deterministic mode.
func (f *front) sentCounter() (int, bool) {
	if net, ok := f.peers[0].Net().(*simnet.Network); ok && !net.Concurrent() {
		return net.Stats().MessagesSent, true
	}
	return 0, false
}

// logSlow logs a slow traced query's tree with the optimizer's cost
// estimate printed next to what the query actually cost.
func (f *front) logSlow(res *Result, plan *physical.Plan, wall time.Duration) {
	f.statsMu.RLock()
	est := f.opt.EstimatePlan(plan)
	f.statsMu.RUnlock()
	msgs, bytes := res.Trace.Totals()
	f.logf("slow query (%v wall, %v simulated): estimate %.0f msgs / %v latency, observed %d msgs / %d bytes\nplan: %s\n%s",
		wall, res.Elapsed, est.Messages, est.Latency, msgs, bytes, res.Plan, res.Trace.String())
}

// rateWindow is how long (transport time) a memoized rate snapshot
// stays fresh. Short enough that a warmup phase followed by a measured
// query recomputes, long enough that back-to-back compilations at
// 1024 peers pay the full-peer scan once.
const rateWindow = 5 * time.Millisecond

// compile lowers and cost-optimizes a parsed query under the
// statistics lock, after refreshing the observed overlay rates so probe
// pricing tracks how warm the routing caches really are, how churned
// the overlay is and how loaded the flow windows run.
func (f *front) compile(q *vql.Query) (*physical.Plan, error) {
	plan, err := physical.CompileQuery(q)
	if err != nil {
		return nil, err
	}
	rate, retries, rtt, pressure := f.routeCacheRates()
	// Store the refreshed rates under the brief write lock, then
	// optimize under the read lock so concurrent compilations still
	// run in parallel.
	f.statsMu.Lock()
	f.stats.CacheHitRate = rate
	f.stats.RetryRate = retries
	f.stats.ProbeRTT = rtt
	f.stats.Pressure = pressure
	f.statsMu.Unlock()
	f.statsMu.RLock()
	f.opt.Optimize(plan)
	f.statsMu.RUnlock()
	return plan, nil
}

// routeCacheRates returns the hosted peers' aggregated overlay rates
// (see scanCacheRates), memoized for rateWindow.
func (f *front) routeCacheRates() (hitRate, retryRate float64, probeRTT time.Duration, pressure float64) {
	now := f.peers[0].Net().Now()
	f.ratesMu.Lock()
	if f.ratesOK && now >= f.ratesAt && now-f.ratesAt < rateWindow {
		hitRate, retryRate, probeRTT, pressure = f.hitRate, f.retryRate, f.probeRTT, f.pressure
		f.ratesMu.Unlock()
		return
	}
	f.ratesMu.Unlock()
	hitRate, retryRate, probeRTT, pressure = f.scanCacheRates()
	f.ratesMu.Lock()
	f.ratesOK, f.ratesAt = true, now
	f.hitRate, f.retryRate, f.probeRTT, f.pressure = hitRate, retryRate, probeRTT, pressure
	f.ratesMu.Unlock()
	return
}

// scanCacheRates aggregates the hosted peers' routing-cache counters
// into the fraction of probes that went direct (the cost model's
// CacheHitRate input), the fraction of direct probe GROUPS that had to
// be hedged or retried (its RetryRate input — groups over groups, so
// batching many keys into one group cannot dilute the rate), the mean
// of the cached per-replica latency EWMAs (its ProbeRTT input — direct
// probes priced at the round trips the replica choosers actually
// observed), and the share of bulk sends that stalled on flow credit
// (its Pressure input).
func (f *front) scanCacheRates() (hitRate, retryRate float64, probeRTT time.Duration, pressure float64) {
	hits, misses, groups, retries := 0, 0, 0, 0
	bulkSends, stalls := 0, 0
	var rttSum time.Duration
	rttN := 0
	for _, p := range f.peers {
		st := p.Stats()
		hits += st.RouteCacheHits
		misses += st.RouteCacheMisses
		groups += st.ProbeGroups
		retries += st.ProbeRetries
		bulkSends += st.FlowBulkSends
		stalls += st.FlowStalls
		sum, n := p.RouteCacheLatency()
		rttSum += sum
		rttN += n
	}
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	if groups > 0 {
		retryRate = min(float64(retries)/float64(groups), 1)
	}
	if rttN > 0 {
		probeRTT = rttSum / time.Duration(rttN)
	}
	if bulkSends > 0 {
		pressure = min(float64(stalls)/float64(bulkSends), 1)
	}
	return hitRate, retryRate, probeRTT, pressure
}

// Stream is an open streaming query: rows arrive through Next as the
// distributed pipeline produces them, before the query has finished —
// the time-to-first-result interface. Close abandons the remainder.
type Stream struct {
	// Vars lists the result variables in projection order.
	Vars []string
	cur  *physical.Cursor
	plan string
}

// QueryStream opens a VQL query (from the same origin Query uses) and
// returns a pull cursor over its result stream; canceling ctx stops the
// pipeline and releases its pending overlay operations. The caller must
// exhaust or Close the stream.
func (f *front) QueryStream(ctx context.Context, src string) (*Stream, error) {
	return f.QueryStreamFrom(ctx, f.pick(), src)
}

// QueryStreamFrom is QueryStream originating at a specific hosted peer.
func (f *front) QueryStreamFrom(ctx context.Context, peerIdx int, src string) (*Stream, error) {
	q, err := vql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	plan, err := f.compile(q)
	if err != nil {
		return nil, err
	}
	return &Stream{
		Vars: resultVars(q),
		cur:  f.Engine(peerIdx).Open(ctx, plan),
		plan: plan.String(),
	}, nil
}

// Next returns the next result row; ok is false at end of stream. On a
// deterministic simulator it drives the network; otherwise it blocks
// until the pipeline emits.
func (s *Stream) Next() (algebra.Binding, bool) { return s.cur.Next() }

// Close terminates the query early, canceling its remaining overlay
// operations. Safe after exhaustion.
func (s *Stream) Close() { s.cur.Close() }

// Plan renders the executed physical plan.
func (s *Stream) Plan() string { return s.plan }

// TimeToFirst reports the time until the first row was available
// (valid once at least one row arrived or the stream ended).
func (s *Stream) TimeToFirst() time.Duration { return s.cur.Exec().TimeToFirst() }

// Elapsed reports the query's total time (valid once the stream ended).
func (s *Stream) Elapsed() time.Duration { return s.cur.Exec().Elapsed() }

// QueryWithMappings answers a query over heterogeneous schemas: it
// first retrieves all correspondence triples from the overlay, then
// executes every rewriting of the query and unites the results — the
// paper's "automatically by the system" path.
func (f *front) QueryWithMappings(src string) (*Result, error) {
	q, err := vql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	peerIdx := f.pick()
	mapRes, err := f.run(peerIdx, schema.MappingQuery())
	if err != nil {
		return nil, err
	}
	var mappings []schema.Mapping
	for _, b := range mapRes.Bindings {
		mappings = append(mappings, schema.Mapping{
			From: b["f"].Str, To: b["t"].Str,
		})
	}
	closure := schema.NewClosure(mappings)
	// Ranking, aggregation, ordering, limiting and projection must
	// apply to the UNION of the variants' bindings, not per variant (a
	// union of skylines is not the skyline of the union, and a union of
	// group counts is not the count of the union) — so the variants run
	// without the tail clauses, which are applied afterwards.
	tail := physical.Tail{
		Skyline: q.Skyline,
		OrderBy: q.OrderBy,
		TopN:    q.Top,
		Limit:   q.Limit,
		Project: q.Select,
	}
	if aggNode, outs, err := algebra.AggregateClauses(q); err != nil {
		return nil, err
	} else if aggNode != nil {
		tail.GroupBy = aggNode.GroupBy
		tail.Aggs = aggNode.Items
		tail.Having = aggNode.Having
		if len(q.Select) > 0 || len(q.Aggs) > 0 {
			tail.Project = append(append([]string{}, q.Select...), outs...)
		}
	}
	stripped := *q
	stripped.Skyline = nil
	stripped.OrderBy = nil
	stripped.Limit = 0
	stripped.Top = false
	stripped.Select = nil
	stripped.Aggs = nil
	stripped.GroupBy = nil
	stripped.Having = nil
	stripped.Distinct = false
	variants := schema.Rewrite(&stripped, closure)
	union := &Result{Vars: resultVars(q)}
	seen := map[string]bool{}
	for _, v := range variants {
		r, err := f.run(peerIdx, v)
		if err != nil {
			return nil, err
		}
		union.Messages += r.Messages
		if r.Elapsed > union.Elapsed {
			union.Elapsed = r.Elapsed
		}
		for _, b := range r.Bindings {
			k := bindingKey(b)
			if !seen[k] {
				seen[k] = true
				union.Bindings = append(union.Bindings, b)
			}
		}
	}
	union.Messages += mapRes.Messages
	union.Bindings = tail.Apply(union.Bindings)
	return union, nil
}

func bindingKey(b algebra.Binding) string {
	var vars []string
	for k := range b {
		vars = append(vars, k)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for _, v := range vars {
		sb.WriteString(v + "=" + b[v].Lexical() + ";")
	}
	return sb.String()
}

func resultVars(q *vql.Query) []string {
	if len(q.Select) > 0 || len(q.Aggs) > 0 {
		out := append([]string{}, q.Select...)
		for _, a := range q.Aggs {
			out = append(out, a.As)
		}
		return out
	}
	return q.Vars()
}

// --- Introspection (the demo UI's inspection tabs) ---------------------------

// LocalData returns the triples stored at one hosted peer — "inspect
// the local data".
func (f *front) LocalData(peerIdx int) []triple.Triple {
	return f.peers[peerIdx%len(f.peers)].Store().All()
}

// RoutingTable renders one hosted peer's routing table — "inspect the
// locally built routing tables".
func (f *front) RoutingTable(peerIdx int) string {
	p := f.peers[peerIdx%len(f.peers)]
	var sb strings.Builder
	fmt.Fprintf(&sb, "peer %d path=%s replicas=%d\n", p.ID(), p.Path(), len(p.Replicas()))
	for l := 0; l < p.Levels(); l++ {
		fmt.Fprintf(&sb, "  level %d:", l)
		for _, r := range p.Refs(l) {
			fmt.Fprintf(&sb, " %d(%s)", r.ID, r.Path)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// StorageLoad returns per-peer live entry counts — the load-balancing
// measurements.
func (f *front) StorageLoad() []int {
	out := make([]int, len(f.peers))
	for i, p := range f.peers {
		out[i] = p.Store().Len()
	}
	return out
}
