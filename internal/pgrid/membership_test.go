package pgrid

import (
	"fmt"
	"testing"

	"unistore/internal/keys"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// The live-membership regression suite: joins that trigger splits
// mid-scan, merges during paged pulls, and routing-cache self-repair.
// Everything runs on the deterministic simnet — same seeds, same
// interleavings, every run.

// scanAge opens a paged scan over the age region from a peer outside
// it and returns the origin, the handle and the collected stream.
func scanAge(t *testing.T, peers []*Peer, opts ...OpOption) (*Peer, *Handle, *[]store.Entry) {
	t.Helper()
	probe := triple.AVKey("age", triple.N(0))
	var q *Peer
	for _, p := range peers {
		if !p.Responsible(probe) {
			q = p
			break
		}
	}
	if q == nil {
		t.Fatal("no peer outside the age region")
	}
	streamed := &[]store.Entry{}
	h := q.RangeQueryPages(triple.ByAV, triple.AVPrefixRange("age"), func(es []store.Entry) {
		*streamed = append(*streamed, es...)
	}, nil, opts...)
	return q, h, streamed
}

// checkStream asserts the stream holds, exactly once each, the facts
// (loadReplicated's rp00, rp01, ...) that the filter f admits — every
// one for a nil f — and nothing else.
func checkStream(t *testing.T, streamed []store.Entry, facts int, f *SubjectFilter) {
	t.Helper()
	seen := map[string]int{}
	for _, e := range streamed {
		seen[e.Triple.OID]++
	}
	admitted := 0
	for i := 0; i < facts; i++ {
		oid := fmt.Sprintf("rp%02d", i)
		switch n := seen[oid]; {
		case f.Has(oid):
			admitted++
			if n != 1 {
				t.Errorf("fact %s streamed %d times, want once", oid, n)
			}
		case n != 0:
			t.Errorf("fact %s streamed %d times, but the filter excludes it", oid, n)
		}
	}
	if len(seen) != admitted {
		t.Errorf("streamed %d distinct facts, want %d", len(seen), admitted)
	}
	if f != nil && admitted == facts {
		t.Errorf("the filter admitted all %d facts; the scan filtered nothing", facts)
	}
}

// everyOther is the subject filter of the even-numbered facts of
// loadReplicated.
func everyOther(facts int) *SubjectFilter {
	var oids []string
	for i := 0; i < facts; i += 2 {
		oids = append(oids, fmt.Sprintf("rp%02d", i))
	}
	return NewSubjectFilter(oids)
}

// TestJoinTriggersSplitMidScanExact: a fresh peer joins a replica
// group whose pages are mid-flight toward a scan origin, the enlarged
// group then splits live — paths deepen, stores re-partition, the
// joiner takes one half — and the scan must still deliver every fact
// exactly once.
func TestJoinTriggersSplitMidScanExact(t *testing.T) { splitMidScan(t, nil) }

// TestSemiScanSplitMidScanExact is the live split under a semi-join
// filtered scan: the continuations keep the filter through the split.
func TestSemiScanSplitMidScanExact(t *testing.T) { splitMidScan(t, everyOther(120)) }

func splitMidScan(t *testing.T, f *SubjectFilter) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	const facts = 120
	net, peers := loadReplicated(91, 8, 2, facts, cfg)
	q, h, streamed := scanAge(t, peers, WithSubjects(f))
	remotePageIn := func() bool {
		for _, e := range *streamed {
			if !e.Key.HasPrefix(q.Path()) {
				return true
			}
		}
		return false
	}
	for !remotePageIn() && net.Step() {
	}
	var server *Peer
	for _, p := range peers {
		if p != q && p.Stats().PagesServed > 0 {
			server = p
			break
		}
	}
	if server == nil {
		t.Fatal("no remote page server")
	}
	// The join: graceful entry into the serving group, state sync by
	// pages, all while the scan's pulls keep flowing.
	nb := NewPeer(net, cfg)
	nb.Join(server.ID())
	for i := 0; i < 6000 && (nb.Path().Len() == 0 || nb.Store().Len() < server.Store().Len()); i++ {
		if !net.Step() {
			break
		}
	}
	if nb.Path().Len() == 0 {
		t.Fatal("join never completed")
	}
	if nb.Store().Len() < server.Store().Len() {
		t.Fatalf("join state sync incomplete: %d < %d entries", nb.Store().Len(), server.Store().Len())
	}
	if h.Done() {
		t.Fatal("scan finished before the split — scenario lost its mid-flight property")
	}
	group := []*Peer{nb}
	for _, p := range peers {
		if p.Path().Equal(server.Path()) {
			group = append(group, p)
		}
	}
	oldLen := server.Path().Len()
	if err := SplitGroup(group); err != nil {
		t.Fatalf("live split: %v", err)
	}
	if server.Path().Len() != oldLen+1 || nb.Path().Len() != oldLen+1 {
		t.Fatalf("split did not deepen paths: server=%s joiner=%s", server.Path(), nb.Path())
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("scan incomplete across live split: %+v", res)
	}
	checkStream(t, *streamed, facts, f)
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// TestMergeDuringPagedPullResumesExact: a replica group retires while
// a paged scan holds an open cursor into its partition — the leavers
// transfer their store to the sibling group, the sibling widens to the
// parent path, the leavers die. The resumed pulls must pick up at the
// cursor through the widened group, and the scan stays exact.
func TestMergeDuringPagedPullResumesExact(t *testing.T) { mergeMidPull(t, nil) }

// TestSemiScanMergeMidPullExact is the live merge under a semi-join
// filtered scan: the widened group resumes the cursor with the filter.
func TestSemiScanMergeMidPullExact(t *testing.T) { mergeMidPull(t, everyOther(120)) }

func mergeMidPull(t *testing.T, f *SubjectFilter) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	const facts = 120
	net, peers := loadReplicated(92, 8, 2, facts, cfg)
	q, h, streamed := scanAge(t, peers, WithSubjects(f))
	remotePageIn := func() bool {
		for _, e := range *streamed {
			if !e.Key.HasPrefix(q.Path()) {
				return true
			}
		}
		return false
	}
	for !remotePageIn() && net.Step() {
	}
	// Pick a serving group whose partition (and sibling partition) the
	// origin is not part of.
	var server *Peer
	for _, p := range peers {
		if p == q || p.Stats().PagesServed == 0 {
			continue
		}
		base := p.Path()
		sib := base.Prefix(base.Len() - 1).Append(1 - base.Bit(base.Len()-1))
		if !q.Path().Equal(base) && !q.Path().Equal(sib) {
			server = p
			break
		}
	}
	if server == nil {
		t.Fatal("no mergeable remote page server")
	}
	base := server.Path()
	sibPath := base.Prefix(base.Len() - 1).Append(1 - base.Bit(base.Len()-1))
	var leavers, sibs []*Peer
	for _, p := range peers {
		if p.Path().Equal(base) {
			leavers = append(leavers, p)
		} else if p.Path().Equal(sibPath) {
			sibs = append(sibs, p)
		}
	}
	if len(sibs) == 0 {
		t.Fatalf("sibling partition %s has no peers", sibPath)
	}
	// Data phase: leavers hand their store to the sibling group while
	// the scan keeps pulling.
	want := sibs[0].Store().Len() + leavers[0].Store().Len()
	TransferStores(leavers, sibs[0])
	for i := 0; i < 6000 && sibs[0].Store().Len() < want; i++ {
		if !net.Step() {
			break
		}
	}
	if sibs[0].Store().Len() < want {
		t.Fatalf("store transfer incomplete: %d < %d entries", sibs[0].Store().Len(), want)
	}
	if h.Done() {
		t.Fatal("scan finished before the merge — scenario lost its mid-flight property")
	}
	// Structure phase: the sibling group widens to the parent and the
	// leavers depart for good.
	if err := WidenGroup(sibs); err != nil {
		t.Fatalf("widen: %v", err)
	}
	for _, p := range leavers {
		net.Kill(p.ID())
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("scan incomplete across live merge: %+v", res)
	}
	checkStream(t, *streamed, facts, f)
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// TestSplitInvalidatesCachesWarmProbeRecovers: a live split must not
// poison learned routing caches — the stale direct probe re-routes,
// answers exactly, repairs the origin's cache (visible as an
// invalidation), and the NEXT probe lands in one hop again.
func TestSplitInvalidatesCachesWarmProbeRecovers(t *testing.T) {
	net, peers := loadReplicated(93, 8, 2, 48, DefaultConfig())
	q := peers[0]
	var key keys.Key
	for i := 0; i < 48; i++ {
		if k := triple.AVKey("age", triple.N(float64(i))); !q.Responsible(k) {
			key = k
			break
		}
	}
	cold := q.LookupSync(triple.ByAV, key)
	if !cold.Complete || cold.Count != 1 {
		t.Fatalf("cold lookup: %+v", cold)
	}
	before := net.Stats().MessagesSent
	warm := q.LookupSync(triple.ByAV, key)
	if !warm.Complete || warm.Count != 1 {
		t.Fatalf("warm lookup: %+v", warm)
	}
	if n := net.Stats().MessagesSent - before; n > 2 {
		t.Fatalf("warm probe cost %d messages, want ≤2", n)
	}
	var owner *Peer
	for _, p := range peers {
		if p.Responsible(key) {
			owner = p
			break
		}
	}
	var group []*Peer
	for _, p := range peers {
		if p.Path().Equal(owner.Path()) {
			group = append(group, p)
		}
	}
	invalBefore := 0
	for _, p := range peers {
		invalBefore += p.Stats().RouteCacheInvalidations
	}
	if err := SplitGroup(group); err != nil {
		t.Fatalf("live split: %v", err)
	}
	net.Settle()
	// Stale probe: the cached owner set predates the split. It must
	// still answer exactly (re-routed if the chosen replica lost the
	// key's half) and teach the origin the deeper partition.
	res := q.LookupSync(triple.ByAV, key)
	if !res.Complete || res.Count != 1 {
		t.Fatalf("post-split probe: %+v", res)
	}
	invalAfter := 0
	for _, p := range peers {
		invalAfter += p.Stats().RouteCacheInvalidations
	}
	if invalAfter <= invalBefore {
		t.Errorf("split invalidated no routing-cache entries (%d before, %d after)", invalBefore, invalAfter)
	}
	// Self-repaired: the re-learned set probes direct again.
	before = net.Stats().MessagesSent
	rewarm := q.LookupSync(triple.ByAV, key)
	if !rewarm.Complete || rewarm.Count != 1 {
		t.Fatalf("re-warmed lookup: %+v", rewarm)
	}
	if n := net.Stats().MessagesSent - before; n > 2 {
		t.Errorf("re-warmed probe cost %d messages, want ≤2 (cache did not self-repair)", n)
	}
}

// TestWarmProbeAllocsBounded guards the warm probe path against O(N)
// allocation regressions: on a 256-peer overlay a warm lookup must
// stay under a flat allocation bound — an accidental per-peer scan or
// per-probe map rebuild blows straight past it.
func TestWarmProbeAllocsBounded(t *testing.T) {
	net, peers := loadReplicated(95, 256, 1, 64, DefaultConfig())
	_ = net
	q := peers[0]
	var key keys.Key
	for i := 0; i < 64; i++ {
		if k := triple.AVKey("age", triple.N(float64(i))); !q.Responsible(k) {
			key = k
			break
		}
	}
	if warm := q.LookupSync(triple.ByAV, key); !warm.Complete || warm.Count != 1 {
		t.Fatalf("warmup lookup: %+v", warm)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if res := q.LookupSync(triple.ByAV, key); !res.Complete {
			t.Error("warm lookup incomplete")
		}
	})
	const bound = 150
	if allocs > bound {
		t.Errorf("warm probe allocated %.0f objects per lookup on a 256-peer overlay (bound %d): an O(peers) allocation crept into the probe path", allocs, bound)
	}
	t.Logf("warm probe: %.1f allocs per lookup", allocs)
}
