package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"unistore/internal/core"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/triple"
	"unistore/internal/vql"
	"unistore/internal/workload"
)

// sim-analytic shape.
const (
	simPersons = 2000
	simPeers   = 64
	simShards  = 4
	simPage    = 16
	// simFixed is the length of the seeded query prefix every run
	// executes in full: msgs_per_op and sim_query_ms are taken over it,
	// so they repeat exactly for one seed however fast the machine is.
	simFixed = 160
	// simCursorRuns bounds the traced queries executed a second time
	// through the engine's cursor.
	simCursorRuns = 48
)

// analyticCycle is the class order of the sim-analytic sequence: half
// of the queries are range joins, so the overall median falls inside
// one class's distribution rather than in the gap between two.
var analyticCycle = []string{"rangejoin", "groupby", "rangejoin", "scanjoin", "rangejoin", "topk"}

func simConfig(peers, replicas, page, shards int) core.Config {
	return core.Config{
		Peers: peers, Replicas: replicas, Seed: systemSeed, PageSize: page,
		RangeShards: shards, Latency: core.LatencyLAN,
	}
}

// peerTotals sums the overlay counters of a set of peers.
func peerTotals(peers []*pgrid.Peer) pgrid.PeerStats {
	var a pgrid.PeerStats
	for _, p := range peers {
		st := p.Stats()
		a.Forwarded += st.Forwarded
		a.RouteCacheHits += st.RouteCacheHits
		a.RouteCacheMisses += st.RouteCacheMisses
		a.PagesServed += st.PagesServed
		a.ProbeGroups += st.ProbeGroups
		a.ProbeRetries += st.ProbeRetries
		a.WriteRetries += st.WriteRetries
		a.FlowBulkSends += st.FlowBulkSends
		a.FlowStalls += st.FlowStalls
	}
	return a
}

// reportPeerDeltas sets the pgrid counter metrics of a measured phase.
func (r *run) reportPeerDeltas(before, after pgrid.PeerStats, ops int) {
	hits := float64(after.RouteCacheHits - before.RouteCacheHits)
	misses := float64(after.RouteCacheMisses - before.RouteCacheMisses)
	r.set("pgrid.route_cache_hit_ratio", ratio(hits, hits+misses))
	r.set("pgrid.forwarded_per_op", ratio(float64(after.Forwarded-before.Forwarded), float64(ops)))
	r.set("pgrid.pages_per_query", ratio(float64(after.PagesServed-before.PagesServed), float64(ops)))
	r.set("pgrid.probe_retry_ratio", ratio(float64(after.ProbeRetries-before.ProbeRetries), float64(after.ProbeGroups-before.ProbeGroups)))
	r.set("pgrid.flow_stall_ratio", ratio(float64(after.FlowStalls-before.FlowStalls), float64(after.FlowBulkSends-before.FlowBulkSends)))
	r.set("pgrid.write_retries", float64(after.WriteRetries))
}

// frontHalf parses, compiles and optimizes src outside the system's
// own query call, timing each layer as a child span of op. It returns
// the optimized plan.
func frontHalf(op spanRef, src string, opt *optimizer.Optimizer) (*physical.Plan, time.Duration, error) {
	start := time.Now()
	s := op.child("vql.parse")
	q, err := vql.ParseQuery(src)
	s.end()
	if err != nil {
		return nil, 0, err
	}
	s = op.child("physical.compile")
	plan, err := physical.CompileQuery(q)
	s.end()
	if err != nil {
		return nil, 0, err
	}
	s = op.child("optimizer.optimize")
	opt.Optimize(plan)
	s.end()
	return plan, time.Since(start), nil
}

// cursorRun is a traced query's optimized plan and origin, kept for a
// second execution through the engine's cursor.
type cursorRun struct {
	origin int
	plan   *physical.Plan
}

// simOutcome is what the deterministic part of a sim-analytic run
// produced; the determinism self-test compares two of them.
type simOutcome struct {
	msgsPerOp  float64
	simQueryMS float64
	answers    uint64
	sequence   uint64
}

func runSimAnalytic(r *run) error {
	simAnalytic(r, simPersons, simFixed)
	return nil
}

func simAnalytic(r *run, persons, fixed int) simOutcome {
	var out simOutcome
	ds := workload.Generate(workload.Options{Seed: r.seed, Persons: persons})
	ref := newReference(ds.Triples)
	base := runtime.NumGoroutine()

	var c *core.Cluster
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if c != nil {
			c.Close()
		}
		t0 := time.Now()
		c = core.NewCluster(simConfig(simPeers, 1, simPage, simShards))
		c.BulkInsert(ds.Triples...)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	r.set("live_heap_mb", liveHeapMB())
	r.set("store.entries_per_triple", storeEntries(c.Peers(), len(ds.Triples), 1))

	opt := optimizer.New(c.Stats(), optimizer.DefaultOptions())
	rng := rand.New(rand.NewSource(r.seed))
	var all latencies
	perClass := map[string]*latencies{}
	for _, cl := range analyticCycle {
		perClass[cl] = &latencies{}
	}
	var (
		fixedMsgs, ops, rows, hops, sideOps int
		simElapsed                          []float64
		answers, sequence                   checksum
		execDur, ttfr                       []float64
		estMsgs, obsMsgs                    float64
		modeledBytes, delivered             int
		msgWall                             time.Duration
		cursorRuns                          []cursorRun
	)
	tracedWall, plainWall := overheadClock{}, overheadClock{}
	peersBefore := peerTotals(c.Peers())
	before := sampleUsage()
	start := time.Now()
	for i := 0; i < fixed || within(start, r.seconds); i++ {
		q := analyticQuery(analyticCycle[i%len(analyticCycle)])
		origin := rng.Intn(c.Size())
		if i < fixed {
			sequence.addString(fmt.Sprintf("%d|%s", origin, q.src))
		}
		opStart := time.Now()
		traceOp := r.traced && (i/len(analyticCycle))%2 == 0
		var root spanRef
		var plan *physical.Plan
		var front time.Duration
		if traceOp {
			root = r.tr.root("op")
			var err error
			if plan, front, err = frontHalf(root, q.src, opt); err != nil {
				r.checked(err)
				root.end()
				continue
			}
		}
		st0 := c.Net().Stats()
		qs := root.child("core.query")
		t0 := time.Now()
		res, err := c.QueryFrom(origin, q.src)
		d := time.Since(t0)
		qs.interval("physical.exec", t0.Add(front), t0.Add(d))
		qs.end()
		c.Net().Settle()
		wall := time.Since(t0)
		st1 := c.Net().Stats()
		msgs := st1.MessagesSent - st0.MessagesSent
		if traceOp {
			tracedWall.add(q.class, time.Since(opStart))
			root.endWith(map[string]int64{"msgs": int64(msgs), "modeled_bytes": int64(st1.BytesSent - st0.BytesSent)})
			if err == nil && len(cursorRuns) < simCursorRuns {
				cursorRuns = append(cursorRuns, cursorRun{origin, plan})
			}
		} else {
			plainWall.add(q.class, time.Since(opStart))
		}
		if err == nil {
			err = ref.check(q, res.Bindings)
		}
		r.checked(err)
		if err != nil {
			continue
		}
		ops++
		all.add(d)
		perClass[q.class].add(d)
		rows += len(res.Bindings)
		hops += res.Hops
		modeledBytes += st1.BytesSent - st0.BytesSent
		delivered += st1.MessagesDelivered - st0.MessagesDelivered
		msgWall += wall
		if i < fixed {
			fixedMsgs += msgs
			simElapsed = append(simElapsed, ms(res.Elapsed))
			answers.add(res.Bindings, q.ordered)
		}
		if traceOp {
			execDur = append(execDur, ms(d-front))
			estMsgs += opt.EstimatePlan(plan).Messages
			obsMsgs += float64(msgs)
		}
	}
	elapsed := time.Since(start)
	after := sampleUsage()
	r.reportUsage(before, after, ops)
	r.reportPeerDeltas(peersBefore, peerTotals(c.Peers()), ops)

	all.report(r, "query")
	r.set("queries_per_s", ratio(float64(ops), elapsed.Seconds()))
	out.msgsPerOp = ratio(float64(fixedMsgs), float64(len(simElapsed)))
	out.simQueryMS = median(simElapsed)
	out.answers, out.sequence = answers.h, sequence.h
	r.set("msgs_per_op", out.msgsPerOp)
	r.set("sim_query_ms", out.simQueryMS)
	for cl, l := range perClass {
		r.set("core.query_p50_ms."+cl, median(l.v))
	}
	r.set("physical.rows_per_query", ratio(float64(rows), float64(ops)))
	r.set("pgrid.hops_per_query", ratio(float64(hops), float64(ops)))
	r.set("simnet.modeled_bytes_per_op", ratio(float64(modeledBytes), float64(ops)))
	r.set("simnet.ns_per_msg", ratio(float64(msgWall.Nanoseconds()), float64(delivered)))
	if r.traced {
		// Second executions through the engine's cursor, after the
		// measured phase so they do not slow it: time to the first row
		// and overlay operations per query.
		for _, cr := range cursorRuns {
			root := r.tr.root("op")
			sideOps += sideCursor(root, c, cr.origin, cr.plan, &ttfr)
			root.end()
		}
		r.set("physical.exec_ms", median(execDur))
		r.set("physical.ttfr_ms", median(ttfr))
		r.set("physical.ops_per_query", ratio(float64(sideOps), float64(len(cursorRuns))))
		r.set("optimizer.est_msgs_ratio", ratio(estMsgs, obsMsgs))
		r.set("trace.overhead_pct", tracedWall.overheadPct(plainWall))
		layerMicrobench(r, ds.Triples, func(tr spanRef, n int) {
			lookupBench(r, tr, c.Peers(), persons, n, func(h *pgrid.Handle) bool { return h.Wait(0).Complete })
		})
	}

	r.simInserts(c, ds.Triples)
	for _, cl := range []string{"groupby", "rangejoin", "scanjoin", "topk"} {
		q := analyticQuery(cl)
		res, err := c.QueryFrom(0, q.src)
		if err == nil {
			err = ref.check(q, res.Bindings)
		}
		r.checked(err)
	}

	c.Net().Settle()
	pending, hosted := 0, 0
	for i, p := range c.Peers() {
		pending += p.PendingOps()
		hosted += c.Engine(i).HostedPlans()
	}
	if pending != 0 || hosted != 0 {
		r.fail("leak after sim-analytic: %d pending ops, %d hosted plans", pending, hosted)
	}
	c.Close()
	if n, ok := waitGoroutines(base, 5*time.Second); !ok {
		r.fail("leak after sim-analytic: %d goroutines, baseline %d", n, base)
	}
	return out
}

// simInserts measures steady-state writes after the queries: dataset
// triples are inserted again, one at a time, at newer versions through
// Cluster.InsertFrom from seeded origins, the network settled each
// time, for half as long as the queries ran. Re-inserting keeps the
// data unchanged, so the phase measures write cost, not growth.
// has_published is skipped: the store keeps one value per (OID,
// attribute), and a person's titles would overwrite each other.
func (r *run) simInserts(c *core.Cluster, data []triple.Triple) {
	var ins latencies
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	runtime.GC() // start every run's phase from the same heap state
	start := time.Now()
	for i := 0; within(start, r.seconds*insertShare); i++ {
		tr := data[i%len(data)]
		if tr.Attr == "has_published" {
			continue
		}
		t0 := time.Now()
		c.InsertFrom(rng.Intn(c.Size()), tr)
		ins.add(time.Since(t0))
	}
	ins.report(r, "insert")
	r.set("inserts_per_s", ratio(float64(len(ins.v)), time.Since(start).Seconds()))
}

// sideCursor executes plan again through the engine's streaming
// cursor, outside the measured query: it appends the time to the first
// row to ttfr and returns the overlay operations the execution issued.
func sideCursor(parent spanRef, c *core.Cluster, origin int, plan *physical.Plan, ttfr *[]float64) int {
	s := parent.child("physical.cursor")
	cur := c.Engine(origin).Open(context.Background(), plan)
	t0 := time.Now()
	if _, ok := cur.Next(); ok {
		*ttfr = append(*ttfr, ms(time.Since(t0)))
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
	}
	s.end()
	c.Net().Settle()
	return cur.Exec().OpsIssued()
}

// storeEntries is Σ store entries per loaded triple per replica.
func storeEntries(peers []*pgrid.Peer, triples, replicas int) float64 {
	n := 0
	for _, p := range peers {
		n += p.Store().Len()
	}
	return ratio(float64(n), float64(triples*replicas))
}

// lookupBench times n single-key OID lookups from seeded peers on a warm
// cluster, one pgrid.lookup span each.
func lookupBench(r *run, parent spanRef, peers []*pgrid.Peer, persons, n int, wait func(*pgrid.Handle) bool) {
	rng := rand.New(rand.NewSource(r.seed ^ 0x100c))
	var ds []float64
	for i := 0; i < n; i++ {
		p := peers[rng.Intn(len(peers))]
		k := triple.OIDKey(fmt.Sprintf("person-%05d", rng.Intn(persons)))
		s := parent.child("pgrid.lookup")
		t0 := time.Now()
		h := p.Lookup(triple.ByOID, k, nil)
		ok := wait(h)
		d := time.Since(t0)
		s.end()
		if !ok {
			r.fail("pgrid lookup of %v did not complete", k)
			continue
		}
		ds = append(ds, us(d))
	}
	r.set("pgrid.lookup_us", median(ds))
}

// overheadClock collects whole-op wall times (ms) per query class, so
// traced and untraced ops of the same classes can be compared.
type overheadClock map[string][]float64

func (o overheadClock) add(class string, d time.Duration) {
	o[class] = append(o[class], ms(d))
}

// overheadPct is the mean over classes of the excess of the traced ops'
// median wall time over the untraced ops' median, in percent. Medians
// keep one collection pause from deciding the figure.
func (o overheadClock) overheadPct(plain overheadClock) float64 {
	var pcts []float64
	for cl, t := range o {
		if p := median(plain[cl]); p > 0 && len(t) > 0 {
			pcts = append(pcts, 100*(median(t)/p-1))
		}
	}
	return mean(pcts)
}
