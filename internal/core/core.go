// Package core assembles UniStore's triple storage layer (paper Fig. 1)
// from its substrates: a simulated network (simnet), the P-Grid overlay
// (pgrid), the per-peer storage service (store), the VQL analyzer
// (vql + algebra), the query executor with mutant plans (physical), the
// cost-based adaptive optimizer (optimizer), and schema mappings
// (schema). One query front end (front.go) runs over any transport: a
// Cluster is a whole universal storage on the simulator — the unit the
// examples, tools and experiments drive — and a Node is one process's
// share of a multi-process cluster over TCP (node.go).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unistore/internal/keys"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/schema"
	"unistore/internal/simnet"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// LatencyProfile selects the simulated network's delay model.
type LatencyProfile string

// Latency profiles.
const (
	LatencyConstant   LatencyProfile = "constant"    // 1ms fixed (hop counting)
	LatencyLAN        LatencyProfile = "lan"         // local cluster
	LatencyWAN        LatencyProfile = "wan"         // generic wide area
	LatencyPlanetLab  LatencyProfile = "planetlab"   // the paper's testbed
	LatencyTwoCluster LatencyProfile = "two-cluster" // two LAN sites over a WAN link
)

func (p LatencyProfile) model() simnet.LatencyModel {
	switch p {
	case LatencyLAN:
		return simnet.LANLatency()
	case LatencyWAN:
		return simnet.NewPairwiseLatency(simnet.WANLatency(), simnet.LANLatency())
	case LatencyPlanetLab:
		return simnet.NewPairwiseLatency(simnet.PlanetLabLatency(), simnet.LANLatency())
	case LatencyTwoCluster:
		return simnet.TwoClusterLatency()
	default:
		return simnet.ConstantLatency(time.Millisecond)
	}
}

// Config parameterizes a Cluster.
type Config struct {
	// Peers is the number of key-space partitions (default 16).
	Peers int
	// Replicas is the replica-group size per partition (default 1).
	Replicas int
	// Latency selects the delay model (default constant 1ms).
	Latency LatencyProfile
	// LossRate drops messages with this probability.
	LossRate float64
	// Seed drives all randomness (default 1).
	Seed int64
	// EnableQGram maintains the distributed q-gram index on inserts.
	EnableQGram bool
	// Optimizer tunes plan selection; zero value = DefaultOptions.
	Optimizer optimizer.Options
	// AntiEntropyInterval is the period of digest-based replica
	// reconciliation: replicas exchange per-prefix version summaries
	// and pull only the differing buckets, in PageSize-bounded pages.
	// 0 disables the rounds.
	AntiEntropyInterval time.Duration
	// ReadReplicas bounds how many replicas the read path spreads
	// probes and page pulls over (power-of-two-choices with hedged
	// failover): 0 uses every replica the routing caches learn, 1 pins
	// reads to the primary owner — the single-owner baseline.
	ReadReplicas int
	// HedgeAfter is the simulated time a direct probe may stay
	// unanswered before it is hedged to a sibling replica (range scans
	// re-shower missing partitions at a multiple of it). 0 selects
	// pgrid.DefaultHedgeAfter; negative disables hedging and scan
	// retries (fail-slow: churned queries wait out the operation
	// deadline).
	HedgeAfter time.Duration
	// AdaptiveSamples, when non-nil, builds the trie adapted to this
	// key sample (load balancing under skew) instead of peer-balanced.
	AdaptiveSamples []keys.Key
	// Concurrent switches the simulated network into concurrent mode
	// once the overlay is built: messages are delivered by per-node
	// worker goroutines in parallel, and queries/inserts may be issued
	// from many goroutines at once. Exact per-seed repeatability of
	// message interleavings is traded for wall-clock parallelism; the
	// overlay topology itself is still built deterministically.
	Concurrent bool
	// TimeDilation compresses simulated link latency into wall clock
	// in concurrent mode: wall = simulated/TimeDilation (default
	// simnet.DefaultTimeDilation = 1000, i.e. a 1ms link costs 1µs).
	// Lower values make the simulation more faithful to real latency;
	// 1 runs in real time. Ignored in deterministic mode.
	TimeDilation float64
	// ProbeParallelism bounds each query's in-flight fan-out window:
	// at most this many overlay probes or range shards in flight at
	// once across the query's whole streaming pipeline. 0 = unbounded
	// full fan-out (default), 1 = strictly sequential probing (the
	// benchmarks' baseline).
	ProbeParallelism int
	// RangeShards splits every range scan into this many key-space
	// shards showered independently (<= 1 disables sharding).
	RangeShards int
	// PageSize bounds every range-scan response to this many entries:
	// a responsible peer with more rows answers in pages, and the
	// query origin pulls continuations only while its pipeline still
	// needs rows — an early-terminated LIMIT/top-k never requests the
	// next page. 0 disables paging (one monolithic response per
	// partition, the pre-paging behaviour).
	PageSize int
	// DisableRouteCache turns off the peers' learned partition→node
	// routing caches (and with them probe batching): every probe pays
	// the full O(log n) routed path. Benchmarks use it as the baseline
	// for the fast-path comparison.
	DisableRouteCache bool
	// FlowWindowBytes is each peer's receive window in payload bytes for
	// credit-gated bulk streams (paged scans, anti-entropy pages,
	// replicated insert fan-out): receivers advertise at most this much
	// un-acked in-flight data per sender, shrunk while their inbound
	// backlog grows. 0 selects pgrid's default (64 KiB).
	FlowWindowBytes int
	// FlowWindowMsgs is the companion message-count window (0 selects
	// pgrid's default of 32).
	FlowWindowMsgs int
	// DisableFlowControl turns off receiver-driven credit gating
	// entirely: windows advertise as unlimited and senders never park
	// bulk sends. Benchmarks use it as the uncontrolled baseline.
	DisableFlowControl bool
	// Tracing enables end-to-end query tracing: peers record serving
	// spans for traced operations and piggyback them home on responses,
	// and every query Result carries the assembled QueryTrace. Off by
	// default — traced runs pay extra bytes (never extra messages).
	Tracing bool
}

func (c Config) withDefaults() Config {
	if c.Peers <= 0 {
		c.Peers = 16
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Optimizer == (optimizer.Options{}) {
		c.Optimizer = optimizer.DefaultOptions()
	}
	return c
}

// Cluster is a running universal storage over the simulated network:
// every overlay peer with a query engine each, behind the front end
// Node shares, plus the simnet ingest helpers and churn drivers. With
// Config.Concurrent set, Insert/Query may be called from multiple
// goroutines; call Close when done to stop the network goroutines.
type Cluster struct {
	front
	cfg   Config
	pcfg  pgrid.Config
	net   *simnet.Network
	clock atomic.Uint64
}

// NewCluster builds and wires a cluster.
func NewCluster(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	net := simnet.New(simnet.Config{
		Latency:  cfg.Latency.model(),
		LossRate: cfg.LossRate,
		Seed:     cfg.Seed,
	})
	pcfg := pgrid.DefaultConfig()
	if cfg.AntiEntropyInterval > 0 {
		pcfg.AntiEntropyEvery = int64(cfg.AntiEntropyInterval)
	}
	pcfg.PageSize = cfg.PageSize
	pcfg.DisableRouteCache = cfg.DisableRouteCache
	pcfg.ReadReplicas = cfg.ReadReplicas
	pcfg.HedgeAfter = int64(cfg.HedgeAfter)
	pcfg.FlowWindowBytes = cfg.FlowWindowBytes
	pcfg.FlowWindowMsgs = cfg.FlowWindowMsgs
	pcfg.DisableFlowControl = cfg.DisableFlowControl
	pcfg.Tracing = cfg.Tracing
	var peers []*pgrid.Peer
	if cfg.AdaptiveSamples != nil {
		peers = pgrid.BuildAdaptive(net, cfg.Peers, cfg.Replicas, cfg.AdaptiveSamples, pcfg)
	} else {
		// Build from the same seeded spec plan NewNode uses: the ref
		// tables become a pure function of (peers, replicas, seed), so a
		// simnet cluster and a multi-process TCP cluster of the same
		// scenario share routing structure — a traced query assembles a
		// structurally identical tree on either transport.
		specs := pgrid.BalancedSpecs(cfg.Peers, cfg.Replicas, pcfg, cfg.Seed)
		var err error
		peers, err = pgrid.BuildFromSpecs(net, specs, specs, pcfg)
		if err != nil {
			// Unreachable: a fresh simulator hosting every spec assigns
			// IDs sequentially, exactly as the specs name them.
			panic(err)
		}
	}
	c := &Cluster{cfg: cfg, pcfg: pcfg, net: net}
	c.parallelism, c.shards = cfg.ProbeParallelism, cfg.RangeShards
	c.origin = func() int { return int(net.Int63()) % len(c.peers) }
	c.init(peers, cfg.Peers, cfg.Replicas, cfg.ReadReplicas, cfg.PageSize, cfg.Optimizer)
	c.reg.OnCollect(func(r *trace.Registry) {
		st := c.net.Stats()
		setCounter(r, "net.messages_sent", int64(st.MessagesSent))
		setCounter(r, "net.messages_delivered", int64(st.MessagesDelivered))
		setCounter(r, "net.messages_dropped", int64(st.MessagesDropped))
		setCounter(r, "net.bytes_sent", int64(st.BytesSent))
	})
	if cfg.Concurrent {
		net.StartConcurrent(cfg.TimeDilation)
	}
	return c
}

// Close stops the network goroutines of a concurrent cluster (no-op in
// deterministic mode). The cluster must not be used afterwards.
func (c *Cluster) Close() { c.net.Stop() }

// Net exposes the simulated network (experiment instrumentation).
func (c *Cluster) Net() *simnet.Network { return c.net }

// Size returns the number of peers.
func (c *Cluster) Size() int { return len(c.peers) }

// nextVersion issues a cluster-wide write version.
func (c *Cluster) nextVersion() uint64 { return c.clock.Add(1) }

// --- Data ingestion ---------------------------------------------------------

// Insert stores triples from an arbitrary peer and drains the network
// (all index entries and replicas placed). Statistics update so the
// optimizer sees real attribute cardinalities.
func (c *Cluster) Insert(ts ...triple.Triple) {
	c.InsertFrom(c.pick(), ts...)
}

// InsertFrom stores triples entering the system at a specific peer.
func (c *Cluster) InsertFrom(peerIdx int, ts ...triple.Triple) {
	p := c.peers[peerIdx%len(c.peers)]
	v := c.nextVersion()
	for _, tr := range ts {
		c.insertAt(p, tr, v)
	}
	c.noteInserted(ts...)
	c.net.Settle()
}

// bulkLoaders bounds the goroutines a concurrent-mode BulkInsert uses.
const bulkLoaders = 8

// BulkInsert loads triples through the parallel bulk-insert path: the
// batch is split across source peers (spreading the routing load over
// the overlay instead of funnelling every insert through one origin)
// and, in concurrent mode, issued from a bounded pool of loader
// goroutines. One network quiescence at the end replaces the per-call
// settling of Insert, so the DHT round trips of a batch overlap
// instead of serializing — O(1) wall-clock per batch rather than
// O(triples).
func (c *Cluster) BulkInsert(ts ...triple.Triple) {
	if len(ts) == 0 {
		return
	}
	v := c.nextVersion()
	c.noteInserted(ts...)
	loaders := min(len(c.peers), bulkLoaders)
	if !c.net.Concurrent() || loaders <= 1 {
		// Deterministic mode: issue everything fire-and-forget from
		// round-robin origins, then drain the network once.
		for i, tr := range ts {
			c.insertAt(c.peers[i%len(c.peers)], tr, v)
		}
	} else {
		var wg sync.WaitGroup
		chunk := (len(ts) + loaders - 1) / loaders
		for w := 0; w*chunk < len(ts); w++ {
			part := ts[w*chunk : min((w+1)*chunk, len(ts))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := c.peers[w%len(c.peers)]
				for _, tr := range part {
					c.insertAt(p, tr, v)
				}
			}()
		}
		wg.Wait()
	}
	c.net.Settle()
}

// BulkInsertAcked loads triples through the acked, replica-aware write
// path: every entry is tracked to its ack (dead or slow owners retried
// to siblings), and sends toward a known partition owner are
// credit-gated against that receiver's advertised flow window — the
// write path benchmarks exercise when measuring backpressure. Origins
// rotate round-robin like BulkInsert but skip dead peers (a dead
// origin would apply locally and never replicate); one quiescence at
// the end covers the acks.
func (c *Cluster) BulkInsertAcked(ts ...triple.Triple) {
	if len(ts) == 0 {
		return
	}
	var live []*pgrid.Peer
	for _, p := range c.peers {
		if c.net.Alive(p.ID()) {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return
	}
	v := c.nextVersion()
	c.noteInserted(ts...)
	for i, tr := range ts {
		p := live[i%len(live)]
		p.InsertTripleAcked(tr, v, nil)
		if c.cfg.EnableQGram {
			physical.InsertGrams(p, tr, v)
		}
	}
	c.net.Settle()
}

// BulkInsertTuples decomposes and bulk-loads logical tuples.
func (c *Cluster) BulkInsertTuples(tps ...*triple.Tuple) {
	var ts []triple.Triple
	for _, tp := range tps {
		ts = append(ts, tp.Triples()...)
	}
	c.BulkInsert(ts...)
}

// insertAt issues one triple (and its q-gram postings) from peer p.
func (c *Cluster) insertAt(p *pgrid.Peer, tr triple.Triple, v uint64) {
	p.InsertTriple(tr, v)
	if c.cfg.EnableQGram {
		physical.InsertGrams(p, tr, v)
	}
}

// InsertTuple decomposes and stores one logical tuple.
func (c *Cluster) InsertTuple(tp *triple.Tuple) {
	c.Insert(tp.Triples()...)
}

// Update overwrites fact (oid, attr) with a new value at a fresh
// version; replicas converge by gossip/anti-entropy.
func (c *Cluster) Update(tr triple.Triple) {
	p := c.peers[c.pick()]
	c.insertAt(p, tr, c.nextVersion())
	c.net.Settle()
}

// Delete tombstones fact (oid, attr).
func (c *Cluster) Delete(oid, attr string) {
	p := c.peers[c.pick()]
	p.DeleteTriple(oid, attr, c.nextVersion())
	c.net.Settle()
}

// AddMapping publishes an attribute correspondence into the overlay.
func (c *Cluster) AddMapping(m schema.Mapping) {
	c.Insert(m.Triples(triple.GenerateOID("map"))...)
}

// Kill and Revive drive churn experiments.
func (c *Cluster) Kill(peerIdx int)   { c.net.Kill(c.peers[peerIdx%len(c.peers)].ID()) }
func (c *Cluster) Revive(peerIdx int) { c.net.Revive(c.peers[peerIdx%len(c.peers)].ID()) }

// samePathGroup returns every live peer sharing peers[idx]'s partition
// path — the replica group the membership operations act on.
func (c *Cluster) samePathGroup(idx int) []*pgrid.Peer {
	base := c.peers[idx%len(c.peers)].Path()
	var g []*pgrid.Peer
	for _, p := range c.peers {
		if p.Path().Equal(base) {
			g = append(g, p)
		}
	}
	return g
}

// JoinPeer boots a brand-new peer into the running cluster via the
// overlay join protocol: it contacts the target, adopts its partition
// path, routing refs and replica set, and receives the partition's
// state by anti-entropy pages. The group grows by one replica; call
// SplitGroup afterwards to divide the enlarged group into two deeper
// partitions. Returns the new peer's index.
func (c *Cluster) JoinPeer(targetIdx int) int {
	target := c.peers[targetIdx%len(c.peers)]
	p := pgrid.NewPeer(c.net, c.pcfg)
	p.Join(target.ID())
	c.net.Settle()
	return c.addPeer(p)
}

// RejoinPeer boots a replacement peer into the running cluster via the
// restart-rejoin protocol: prepare (when non-nil) runs before any
// message flows — it is where the caller recovers the peer's store from
// its WAL directory — and the peer then re-registers with the target's
// replica group. With recovered state the catch-up is digest-delta
// anti-entropy (cost ∝ missed writes); with an empty store it degrades
// to the full-state join sync. Returns the new peer's index.
func (c *Cluster) RejoinPeer(targetIdx int, prepare func(*pgrid.Peer) error) (int, error) {
	target := c.peers[targetIdx%len(c.peers)]
	p := pgrid.NewPeer(c.net, c.pcfg)
	if prepare != nil {
		if err := prepare(p); err != nil {
			return -1, err
		}
	}
	p.Rejoin(target.ID())
	c.net.Settle()
	return c.addPeer(p), nil
}

// SplitGroup performs a live P-Grid split of peers[peerIdx]'s replica
// group: the group divides into the path+0 and path+1 halves, each half
// retains only its partition's entries and hands the rest to the other
// side, and stale routing-cache entries for the old partition are
// invalidated cluster-wide as queries observe the new paths. Queries
// in flight across the split stay exact (scan claims migrate and the
// coverage ledger accounts for the abandoned half).
func (c *Cluster) SplitGroup(peerIdx int) error {
	if err := pgrid.SplitGroup(c.samePathGroup(peerIdx)); err != nil {
		return err
	}
	c.net.Settle()
	return nil
}

// MergeGroup retires peers[peerIdx]'s replica group by merging its
// partition into the sibling partition: the leavers first transfer all
// their entries to the sibling group (data phase), the sibling group
// widens its path to the common parent, and the leavers then depart.
// The sibling must be a leaf partition (exact sibling path) — merging
// into a subdivided sibling would need a cascade of merges.
func (c *Cluster) MergeGroup(peerIdx int) error {
	leavers := c.samePathGroup(peerIdx)
	base := leavers[0].Path()
	if base.Len() == 0 {
		return fmt.Errorf("core: cannot merge the root partition")
	}
	sibling := base.Prefix(base.Len() - 1).Append(1 - base.Bit(base.Len()-1))
	var sibs []*pgrid.Peer
	for _, p := range c.peers {
		if p.Path().Equal(sibling) {
			sibs = append(sibs, p)
		}
	}
	if len(sibs) == 0 {
		return fmt.Errorf("core: no leaf group at sibling partition %s", sibling)
	}
	// Data before structure: the widened group must already hold the
	// leavers' entries when routing starts sending it the merged
	// partition's queries.
	pgrid.TransferStores(leavers, sibs[0])
	c.net.Settle()
	if err := pgrid.WidenGroup(sibs); err != nil {
		return err
	}
	for _, p := range leavers {
		c.net.Kill(p.ID())
	}
	c.net.Settle()
	return nil
}
