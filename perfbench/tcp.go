package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"unistore/internal/core"
	"unistore/internal/cost"
	"unistore/internal/netx"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/store/wal"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

// TCP topology shared by tcp-lookup and tcp-ingest: three in-process
// nodes on loopback, each with its own netx transport.
const (
	tcpProcs      = 3
	tcpParts      = 16
	tcpReplicas   = 2
	tcpPage       = 16
	clients       = 2 // closed-loop client goroutines, one per node 0/1
	lookupPersons = 500
	ingestPersons = 300
	// readShare is tcp-ingest's fraction of reads among its ops.
	readShare = 0.1
	// replayPerClient is how many ops of each tcp-lookup client's
	// sequence the simnet replay runs.
	replayPerClient = 500
	// replayReads is how many reads of each tcp-ingest client the replay
	// runs, with the inserts between them.
	replayReads = 150
	opTimeout   = 10 * time.Second
	// ingestPolicy is the WAL fsync policy of tcp-ingest. Under the
	// daemon's default, always (fsync before the ack, group commit),
	// insert latency followed the shared disk and varied by half between
	// runs; interval fsyncs from a 100 ms background ticker instead.
	ingestPolicy = wal.SyncInterval
)

type tcpCluster struct{ nodes []*core.Node }

// startTCP launches the nodes and waits until each knows a route to
// every peer. dataDir, when set, makes every node WAL-backed.
func startTCP(dataDir string) (*tcpCluster, error) {
	tc := &tcpCluster{}
	var seeds []string
	for pi := 0; pi < tcpProcs; pi++ {
		cfg := core.NodeConfig{
			Listen: "127.0.0.1:0", Seeds: seeds, Partitions: tcpParts, Replicas: tcpReplicas,
			Procs: tcpProcs, ProcIndex: pi, Seed: systemSeed, PageSize: tcpPage,
		}
		if dataDir != "" {
			cfg.DataDir = filepath.Join(dataDir, fmt.Sprintf("node-%d", pi))
			cfg.Fsync = ingestPolicy
		}
		n, err := core.NewNode(cfg)
		if err != nil {
			tc.close()
			return nil, err
		}
		tc.nodes = append(tc.nodes, n)
		if pi == 0 {
			seeds = []string{n.Addr()}
		}
	}
	for _, n := range tc.nodes {
		if !n.WaitReady(opTimeout) {
			tc.close()
			return nil, fmt.Errorf("node %s never saw routes to the whole cluster", n.Addr())
		}
	}
	return tc, nil
}

func (tc *tcpCluster) barrier() bool {
	for _, n := range tc.nodes {
		if !n.Barrier(opTimeout) {
			return false
		}
	}
	return true
}

func (tc *tcpCluster) close() error {
	var errs []error
	for _, n := range tc.nodes {
		errs = append(errs, n.Close(opTimeout))
	}
	return errors.Join(errs...)
}

func (tc *tcpCluster) peers() []*pgrid.Peer {
	var ps []*pgrid.Peer
	for _, n := range tc.nodes {
		ps = append(ps, n.Peers()...)
	}
	return ps
}

func (tc *tcpCluster) pending() int {
	n := 0
	for _, p := range tc.peers() {
		n += p.PendingOps()
	}
	return n
}

func (tc *tcpCluster) netTotals() netx.Stats {
	var a netx.Stats
	for _, n := range tc.nodes {
		s := n.Transport().Stats()
		a.FramesOut += s.FramesOut
		a.BytesOut += s.BytesOut
		a.Dials += s.Dials
		a.DropsQueueCtrl += s.DropsQueueCtrl
		a.DropsQueueBulk += s.DropsQueueBulk
		a.DropsDead += s.DropsDead
		a.DropsInbox += s.DropsInbox
	}
	return a
}

// walTotals sums the wal.syncs counter and wal.log_bytes gauge of every
// node's metrics registry.
func (tc *tcpCluster) walTotals() (syncs int64, logBytes float64) {
	for _, n := range tc.nodes {
		s := n.Registry().Snapshot()
		syncs += s.Counters["wal.syncs"]
		logBytes += s.Gauges["wal.log_bytes"]
	}
	return syncs, logBytes
}

// load inserts triples through acked Node.Insert from the client
// goroutines, client g on node g.
func (r *run) load(tc *tcpCluster, data []triple.Triple) {
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(data); i += clients {
				r.checked(tc.nodes[g].Insert(data[i], opTimeout))
			}
		}(g)
	}
	wg.Wait()
}

// insertOne runs one acked Node.Insert, timed under a core.insert span
// when traced, and records its latency if it was acked.
func (r *run) insertOne(n *core.Node, tr triple.Triple, traced bool, ins *latencies) bool {
	var root spanRef
	if traced {
		root = r.tr.root("op")
	}
	s := root.child("core.insert")
	t0 := time.Now()
	err := n.Insert(tr, opTimeout)
	d := time.Since(t0)
	s.end()
	root.end()
	r.checked(err)
	if err != nil {
		return false
	}
	ins.add(d)
	return true
}

// setupTCP builds and loads the cluster setupReps times and keeps the
// last one; setup_s is the median. Earlier clusters are closed and must
// give back every goroutine.
func (r *run) setupTCP(data []triple.Triple, dataDir func(rep int) string) (*tcpCluster, error) {
	base := runtime.NumGoroutine()
	var setups []float64
	var tc *tcpCluster
	for rep := 0; rep < setupReps; rep++ {
		if tc != nil {
			if err := tc.close(); err != nil {
				r.fail("close: %v", err)
			}
			if n, ok := waitGoroutines(base, 5*time.Second); !ok {
				r.fail("leak after set-up %d: %d goroutines, baseline %d", rep, n, base)
			}
		}
		t0 := time.Now()
		var err error
		if tc, err = startTCP(dataDir(rep)); err != nil {
			return nil, err
		}
		r.load(tc, data)
		if !tc.barrier() {
			r.fail("set-up barrier did not quiesce")
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	r.set("live_heap_mb", liveHeapMB())
	r.set("store.entries_per_triple", storeEntries(tc.peers(), len(data), tcpReplicas))
	return tc, nil
}

// nodeStats builds optimizer statistics for the loaded data, the kind a
// Node keeps from its inserts, so the traced run can time optimization
// outside Node.Query.
func nodeStats(data []triple.Triple) *cost.Stats {
	st := cost.DefaultStats(tcpParts)
	st.Replicas = tcpReplicas
	st.PageSize = tcpPage
	st.TotalTriples = len(data)
	st.TriplesPerAttr = map[string]int{}
	for _, tr := range data {
		st.TriplesPerAttr[tr.Attr]++
	}
	return st
}

// queryStats gathers the checked queries of a measured phase from
// several client goroutines.
type queryStats struct {
	mu         sync.Mutex
	all        latencies
	perClass   map[string]*latencies
	exec       []float64
	rows, hops int
	ops        int
	traced     overheadClock
	plain      overheadClock
}

func newQueryStats() *queryStats {
	return &queryStats{perClass: map[string]*latencies{}, traced: overheadClock{}, plain: overheadClock{}}
}

// tcpQuery runs one checked query on a node: wall clock around
// Node.Query, plus (traced ops only) the front half timed on the side
// and the exec share derived from it.
func (r *run) tcpQuery(n *core.Node, q query, ref *reference, qs *queryStats, opt *optimizer.Optimizer, traceOp bool) {
	opStart := time.Now()
	var root spanRef
	var front time.Duration
	if traceOp {
		root = r.tr.root("op")
		var err error
		if _, front, err = frontHalf(root, q.src, opt); err != nil {
			r.checked(err)
			root.end()
			return
		}
	}
	s := root.child("core.query")
	t0 := time.Now()
	res, err := n.Query(q.src)
	d := time.Since(t0)
	s.interval("physical.exec", t0.Add(front), t0.Add(d))
	s.end()
	root.end()
	if err == nil {
		err = ref.check(q, res.Bindings)
	}
	r.checked(err)
	if err != nil {
		return
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.all.v = append(qs.all.v, ms(d))
	l := qs.perClass[q.class]
	if l == nil {
		l = &latencies{}
		qs.perClass[q.class] = l
	}
	l.v = append(l.v, ms(d))
	qs.rows += len(res.Bindings)
	qs.hops += res.Hops
	qs.ops++
	if traceOp {
		qs.exec = append(qs.exec, ms(d-front))
		qs.traced.add(q.class, time.Since(opStart))
	} else {
		qs.plain.add(q.class, time.Since(opStart))
	}
}

func (qs *queryStats) report(r *run) {
	qs.all.report(r, "query")
	for cl, l := range qs.perClass {
		r.set("core.query_p50_ms."+cl, median(l.v))
	}
	r.set("physical.rows_per_query", ratio(float64(qs.rows), float64(qs.ops)))
	r.set("pgrid.hops_per_query", ratio(float64(qs.hops), float64(qs.ops)))
	if r.traced {
		r.set("physical.exec_ms", median(qs.exec))
		r.set("trace.overhead_pct", qs.traced.overheadPct(qs.plain))
	}
}

// clientRand seeds client g's op sequence.
func clientRand(seed int64, g int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(g) + 1))
}

// phase is the bookkeeping around a measured phase: resource usage,
// transport and overlay counters at its start.
type phase struct {
	start time.Time
	use   usage
	net   netx.Stats
	peers pgrid.PeerStats
}

func beginPhase(tc *tcpCluster) phase {
	return phase{use: sampleUsage(), net: tc.netTotals(), peers: peerTotals(tc.peers()), start: time.Now()}
}

// end sets the transport, CPU and overlay metrics of the phase.
func (p phase) end(r *run, tc *tcpCluster, ops int) (elapsed time.Duration, frames, bytes int64) {
	elapsed = time.Since(p.start)
	r.reportUsage(p.use, sampleUsage(), ops)
	r.reportPeerDeltas(p.peers, peerTotals(tc.peers()), ops)
	n := tc.netTotals()
	frames, bytes = n.FramesOut-p.net.FramesOut, n.BytesOut-p.net.BytesOut
	r.set("netx.frames_per_op", ratio(float64(frames), float64(ops)))
	r.set("wire_bytes_per_op", ratio(float64(bytes), float64(ops)))
	r.set("netx.bytes_per_frame", ratio(float64(bytes), float64(frames)))
	r.set("netx.drops", float64(n.DropsQueueCtrl+n.DropsQueueBulk+n.DropsDead+n.DropsInbox))
	r.set("netx.dials", float64(n.Dials))
	return elapsed, frames, bytes
}

// quiesceAndCheck waits for the cluster to drain and requires that no
// overlay operation is left pending.
func (r *run) quiesceAndCheck(tc *tcpCluster, when string) {
	if !tc.barrier() {
		r.fail("%s: barrier did not quiesce", when)
	}
	if n := tc.pending(); n != 0 {
		r.fail("leak %s: %d pending ops", when, n)
	}
}

// --- tcp-lookup --------------------------------------------------------------

func runTCPLookup(r *run) error {
	ds := workload.Generate(workload.Options{Seed: r.seed, Persons: lookupPersons})
	ref := newReference(ds.Triples)
	pool := lookupPool(rand.New(rand.NewSource(r.seed)), lookupPersons)
	for _, qs := range pool {
		for _, q := range qs {
			if _, err := ref.answer(q); err != nil {
				return err
			}
		}
	}
	base := runtime.NumGoroutine()
	tc, err := r.setupTCP(ds.Triples, func(int) string { return "" })
	if err != nil {
		return err
	}

	stats := newQueryStats()
	ph := beginPhase(tc)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := clientRand(r.seed, g)
			opt := optimizer.New(nodeStats(ds.Triples), optimizer.DefaultOptions())
			for i := 0; within(ph.start, r.seconds); i++ {
				q := lookupNext(rng, pool, i)
				r.tcpQuery(tc.nodes[g], q, ref, stats, opt, r.traced && (i/len(lookupCycle))%2 == 0)
			}
		}(g)
	}
	wg.Wait()
	elapsed, frames, bytes := ph.end(r, tc, stats.ops)
	stats.report(r)
	r.set("queries_per_s", ratio(float64(stats.ops), elapsed.Seconds()))
	r.quiesceAndCheck(tc, "after tcp-lookup queries")

	// Steady-state writes: after the queries, both clients insert fresh
	// persons' triples through acked Node.Insert; every acked write is
	// then read back.
	var inserts latencies
	acked := make([][]triple.Triple, clients)
	insStart := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := newIngestClient(r.seed, g, nil)
			for within(insStart, r.seconds*insertShare) {
				tr := cl.nextTriple()
				if r.insertOne(tc.nodes[g], tr, r.traced, &inserts) {
					acked[g] = append(acked[g], tr)
				}
			}
		}(g)
	}
	wg.Wait()
	inserts.report(r, "insert")
	r.set("inserts_per_s", ratio(float64(len(inserts.v)), time.Since(insStart).Seconds()))
	r.quiesceAndCheck(tc, "after tcp-lookup inserts")
	r.verifyAcked(tc, acked)

	if r.traced {
		layerMicrobench(r, ds.Triples, func(parent spanRef, n int) {
			lookupBench(r, parent, tc.peers(), lookupPersons, n, func(h *pgrid.Handle) bool { return h.Wait(opTimeout).Complete })
		})
	}
	if err := tc.close(); err != nil {
		r.fail("close: %v", err)
	}
	if n, ok := waitGoroutines(base, 5*time.Second); !ok {
		r.fail("leak after tcp-lookup: %d goroutines, baseline %d", n, base)
	}

	seqs := make([][]op, clients)
	for g := range seqs {
		rng := clientRand(r.seed, g)
		for i := 0; i < replayPerClient; i++ {
			seqs[g] = append(seqs[g], op{read: true, q: lookupNext(rng, pool, i)})
		}
	}
	r.replay(ds.Triples, seqs, ref, ratio(float64(frames), float64(stats.ops)), ratio(float64(bytes), float64(frames)))
	return nil
}

// --- simnet replay -----------------------------------------------------------

// replay runs the clients' op sequences again, interleaved, on a simnet
// cluster of the same topology (16 partitions × 2 replicas, same overlay
// seed, page 16), each op from the peer the client's node issues it
// from: queries through Cluster.QueryFrom, inserts through the acked
// write path Node.Insert uses. The counts are exact and repeat for one
// seed, so they give the TCP workloads' msgs_per_op and sim_query_ms,
// and the sim/TCP cross-check: the real bytes per frame over the
// modeled bytes per message, and the message-count difference per op.
func (r *run) replay(data []triple.Triple, seqs [][]op, ref *reference, tcpFramesPerOp, tcpBytesPerFrame float64) {
	c := core.NewCluster(simConfig(tcpParts, tcpReplicas, tcpPage, 0))
	defer c.Close()
	c.BulkInsert(data...)
	opt := optimizer.New(c.Stats(), optimizer.DefaultOptions())
	var (
		elapsed, ttfr               []float64
		msgs, bytes, delivered, ops int
		sideOps, sideRuns           int
		estMsgs, obsMsgs            float64
		wall                        time.Duration
	)
	// Fresh inserts get versions above every bulk-loaded one.
	version := uint64(1) << 40
	for i := 0; ; i++ {
		g := i % len(seqs)
		if i/len(seqs) >= len(seqs[g]) {
			break
		}
		o := seqs[g][i/len(seqs)]
		st0 := c.Net().Stats()
		t0 := time.Now()
		var res *core.Result
		var err error
		if o.read {
			res, err = c.QueryFrom(g, o.q.src)
		} else {
			version++
			if !c.Peers()[g].InsertTripleAcked(o.tr, version, nil).Wait(0).Complete {
				err = fmt.Errorf("replayed insert %s/%s not acked", o.tr.OID, o.tr.Attr)
			}
		}
		c.Net().Settle()
		wall += time.Since(t0)
		st1 := c.Net().Stats()
		if err == nil && o.read {
			err = ref.check(o.q, res.Bindings)
		}
		r.checked(err)
		if err != nil {
			continue
		}
		ops++
		m := st1.MessagesSent - st0.MessagesSent
		msgs += m
		bytes += st1.BytesSent - st0.BytesSent
		delivered += st1.MessagesDelivered - st0.MessagesDelivered
		if !o.read {
			continue
		}
		elapsed = append(elapsed, ms(res.Elapsed))
		if !r.traced {
			continue
		}
		plan, _, err := frontHalf(spanRef{}, o.q.src, opt)
		if err != nil {
			r.checked(err)
			continue
		}
		estMsgs += opt.EstimatePlan(plan).Messages
		obsMsgs += float64(m)
		sideOps += sideCursor(spanRef{}, c, g, plan, &ttfr)
		sideRuns++
	}
	r.set("msgs_per_op", ratio(float64(msgs), float64(ops)))
	r.set("sim_query_ms", median(elapsed))
	r.set("simnet.modeled_bytes_per_op", ratio(float64(bytes), float64(ops)))
	r.set("simnet.ns_per_msg", ratio(float64(wall.Nanoseconds()), float64(delivered)))
	r.set("netx.wire_to_model_bytes_ratio", ratio(tcpBytesPerFrame, ratio(float64(bytes), float64(msgs))))
	r.set("netx.msg_count_diff", ratio(float64(msgs), float64(ops))-tcpFramesPerOp)
	if r.traced {
		r.set("physical.ttfr_ms", median(ttfr))
		r.set("physical.ops_per_query", ratio(float64(sideOps), float64(sideRuns)))
		r.set("optimizer.est_msgs_ratio", ratio(estMsgs, obsMsgs))
	}
	pending, hosted := 0, 0
	for i, p := range c.Peers() {
		pending += p.PendingOps()
		hosted += c.Engine(i).HostedPlans()
	}
	if pending != 0 || hosted != 0 {
		r.fail("leak after simnet replay: %d pending ops, %d hosted plans", pending, hosted)
	}
}

// --- tcp-ingest --------------------------------------------------------------

// op is one client operation: a checked query, or an acked insert.
type op struct {
	read bool
	q    query
	tr   triple.Triple
}

// ingestClient generates a client's op stream: about readShare reads of
// preloaded persons, the rest inserts of fresh persons' triples, four
// per person.
type ingestClient struct {
	g      int
	rng    *rand.Rand
	pool   []query
	person int
	fresh  []triple.Triple
}

func newIngestClient(seed int64, g int, pool []query) *ingestClient {
	return &ingestClient{g: g, rng: clientRand(seed, g), pool: pool}
}

func (c *ingestClient) next() op {
	if c.rng.Float64() < readShare {
		return op{read: true, q: c.pool[c.rng.Intn(len(c.pool))]}
	}
	return op{tr: c.nextTriple()}
}

func (c *ingestClient) nextTriple() triple.Triple {
	if len(c.fresh) == 0 {
		oid := fmt.Sprintf("fresh-%d-%06d", c.g, c.person)
		c.person++
		c.fresh = []triple.Triple{
			triple.T(oid, "name", fmt.Sprintf("%s %s %s",
				workload.FirstNames[c.rng.Intn(len(workload.FirstNames))],
				workload.LastNames[c.rng.Intn(len(workload.LastNames))], oid)),
			triple.TN(oid, "age", float64(22+c.rng.Intn(48))),
			triple.T(oid, "email", oid+"@example.org"),
			triple.T(oid, "phone", fmt.Sprintf("+41-%07d", c.rng.Intn(10000000))),
		}
	}
	tr := c.fresh[0]
	c.fresh = c.fresh[1:]
	return tr
}

func runTCPIngest(r *run) error {
	ds := workload.Generate(workload.Options{Seed: r.seed, Persons: ingestPersons})
	ref := newReference(ds.Triples)
	prng := rand.New(rand.NewSource(r.seed))
	var pool []query
	for k := 0; k < poolPerClass; k++ {
		q := pointQuery("oid", prng.Intn(ingestPersons))
		if _, err := ref.answer(q); err != nil {
			return err
		}
		pool = append(pool, q)
	}
	root, err := os.MkdirTemp(r.work, "ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dirOf := func(rep int) string { return filepath.Join(root, fmt.Sprintf("setup-%d", rep)) }
	base := runtime.NumGoroutine()
	tc, err := r.setupTCP(ds.Triples, dirOf)
	if err != nil {
		return err
	}

	stats := newQueryStats()
	var inserts latencies
	acked := make([][]triple.Triple, clients)
	syncs0, log0 := tc.walTotals()
	ph := beginPhase(tc)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := newIngestClient(r.seed, g, pool)
			opt := optimizer.New(nodeStats(ds.Triples), optimizer.DefaultOptions())
			for i := 0; within(ph.start, r.seconds); i++ {
				o := cl.next()
				// Traced and untraced ops alternate in blocks of ten.
				traceOp := r.traced && (i/10)%2 == 0
				if o.read {
					r.tcpQuery(tc.nodes[g], o.q, ref, stats, opt, traceOp)
					continue
				}
				if r.insertOne(tc.nodes[g], o.tr, traceOp, &inserts) {
					acked[g] = append(acked[g], o.tr)
				}
			}
		}(g)
	}
	wg.Wait()
	nIns := len(inserts.v)
	elapsed, frames, bytes := ph.end(r, tc, stats.ops+nIns)
	syncs1, log1 := tc.walTotals()
	stats.report(r)
	inserts.report(r, "insert")
	r.set("queries_per_s", ratio(float64(stats.ops), elapsed.Seconds()))
	r.set("inserts_per_s", ratio(float64(nIns), elapsed.Seconds()))
	r.set("wal.syncs_per_insert", ratio(float64(syncs1-syncs0), float64(nIns)))
	r.set("wal.log_bytes_per_insert", ratio(log1-log0, float64(nIns)))
	r.quiesceAndCheck(tc, "after tcp-ingest")
	r.verifyAcked(tc, acked)

	if r.traced {
		layerMicrobench(r, ds.Triples, func(parent spanRef, n int) {
			lookupBench(r, parent, tc.peers(), ingestPersons, n, func(h *pgrid.Handle) bool { return h.Wait(opTimeout).Complete })
		})
	}

	// Restart every node from its WAL directory and check the acked
	// writes again.
	if err := tc.close(); err != nil {
		r.fail("close before restart: %v", err)
	}
	if n, ok := waitGoroutines(base, 5*time.Second); !ok {
		r.fail("leak after tcp-ingest: %d goroutines, baseline %d", n, base)
	}
	t0 := time.Now()
	tc, err = startTCP(dirOf(setupReps - 1))
	if err != nil {
		return fmt.Errorf("restart from WAL: %w", err)
	}
	r.set("wal.recovery_s", time.Since(t0).Seconds())
	r.verifyAcked(tc, acked)
	for _, q := range pool[:16] {
		r.tcpQuery(tc.nodes[0], q, ref, newQueryStats(), nil, false)
	}
	r.quiesceAndCheck(tc, "after restart")
	if err := tc.close(); err != nil {
		r.fail("close after restart: %v", err)
	}
	if n, ok := waitGoroutines(base, 5*time.Second); !ok {
		r.fail("leak after restart: %d goroutines, baseline %d", n, base)
	}

	// Replay each client's ops up to its replayReads-th read, so the
	// median sim_query_ms rests on as many reads as inserts allow.
	seqs := make([][]op, clients)
	for g := range seqs {
		cl := newIngestClient(r.seed, g, pool)
		for reads := 0; reads < replayReads; {
			o := cl.next()
			if o.read {
				reads++
			}
			seqs[g] = append(seqs[g], o)
		}
	}
	r.replay(ds.Triples, seqs, ref, ratio(float64(frames), float64(stats.ops+nIns)), ratio(float64(bytes), float64(frames)))
	return nil
}

// verifyAcked queries every fresh person by OID and requires exactly
// the triples whose inserts were acknowledged.
func (r *run) verifyAcked(tc *tcpCluster, acked [][]triple.Triple) {
	want := map[string][]string{}
	for _, trs := range acked {
		for _, tr := range trs {
			want[tr.OID] = append(want[tr.OID], "a="+triple.S(tr.Attr).Lexical()+";v="+tr.Val.Lexical()+";")
		}
	}
	oids := make([]string, 0, len(want))
	for oid := range want {
		oids = append(oids, oid)
	}
	sort.Strings(oids)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(oids); i += clients {
				oid := oids[i]
				res, err := tc.nodes[g].Query(fmt.Sprintf(`SELECT ?a,?v WHERE {('%s',?a,?v)}`, oid))
				if err == nil {
					got := canonRows(res.Bindings, false)
					exp := append([]string(nil), want[oid]...)
					sort.Strings(exp)
					if strings.Join(got, "\n") != strings.Join(exp, "\n") {
						err = fmt.Errorf("acked writes of %s: got %v, want %v", oid, got, exp)
					}
				}
				r.checked(err)
			}
		}(g)
	}
	wg.Wait()
}
