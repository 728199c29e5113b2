package pgrid

import (
	"testing"
	"time"

	"unistore/internal/store"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// TestPagePullHedgeRecoversFastMidPaginationDeath: the pull-level
// hedge must recover a server that dies between pages within roughly
// one hedge interval — not the 10× scan-level re-shower backstop — and
// deliver every fact exactly once.
func TestPagePullHedgeRecoversFastMidPaginationDeath(t *testing.T) { hedgeMidPagination(t, nil) }

// TestSemiScanHedgeMidPaginationDeath is the pull hedge under a
// semi-join filtered scan: the hedged pull carries the filter on.
func TestSemiScanHedgeMidPaginationDeath(t *testing.T) { hedgeMidPagination(t, everyOther(40)) }

func hedgeMidPagination(t *testing.T, f *SubjectFilter) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	net, peers := loadReplicated(81, 2, 2, 40, cfg)
	// Two partitions × two replicas: originate outside the age region
	// so the whole stream is remote.
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
	var streamed []store.Entry
	start := net.Now()
	h := q.RangeQueryPages(triple.ByAV, triple.AVPrefixRange("age"), func(es []store.Entry) {
		streamed = append(streamed, es...)
	}, nil, WithSubjects(f))
	// Step until the first remote page landed — the pull for the next
	// page is then already in flight — and kill its server.
	for len(streamed) == 0 && net.Step() {
	}
	if len(streamed) == 0 {
		t.Fatal("no page ever streamed")
	}
	killed := false
	for _, p := range peers {
		if p != q && p.Stats().PagesServed > 0 {
			net.Kill(p.ID())
			killed = true
		}
	}
	if !killed {
		t.Fatal("no remote server to kill")
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("scan incomplete after mid-pagination death: %+v", res)
	}
	elapsed := net.Now() - start
	if st := q.Stats(); st.PagePullHedges == 0 {
		t.Errorf("pull hedge never fired (stats %+v)", st)
	}
	// Recovery must beat the scan-level backstop (hedge × scanRetryFactor).
	if backstop := DefaultHedgeAfter * scanRetryFactor; elapsed >= backstop {
		t.Errorf("recovery took %v, want < %v (the pull hedge, not the re-shower, must recover)",
			elapsed, backstop)
	}
	checkStream(t, streamed, 40, f)
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// TestPagePullHedgeQuietOnHealthyStream: a healthy paged scan must not
// spend hedges — the timers dissolve as cursors progress.
func TestPagePullHedgeQuietOnHealthyStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	net, peers := loadReplicated(83, 4, 2, 40, cfg)
	q := peers[0]
	res := q.RangeQuerySync(triple.ByAV, triple.AVPrefixRange("age"))
	net.Run()
	if !res.Complete {
		t.Fatalf("healthy scan incomplete: %+v", res)
	}
	if st := q.Stats(); st.PagePullHedges != 0 {
		t.Errorf("healthy stream spent %d pull hedges", st.PagePullHedges)
	}
}

// TestAckedInsertRetriesPastDeadOwner: an acked insert whose
// responsible primary dies with the envelope in flight must re-route
// after the hedge deadline, land on a live replica, and complete —
// the write-path mirror of probe failover.
func TestAckedInsertRetriesPastDeadOwner(t *testing.T) {
	net, peers := loadReplicated(85, 16, 2, 16, DefaultConfig())
	origin := peers[0]
	tr := triple.TN("wnew", "age", 999)
	h := origin.InsertTripleAcked(tr, 7, nil)
	// The three index envelopes are in flight; kill a loaded
	// responsible peer (not the origin) before delivery.
	responsible := func(p *Peer) bool {
		for _, kind := range triple.AllIndexKinds {
			if p.Responsible(triple.IndexKey(tr, kind)) {
				return true
			}
		}
		return false
	}
	killed := false
	for steps := 0; steps < 10000 && !killed; steps++ {
		for _, p := range peers[1:] {
			if responsible(p) && net.Load(p.ID()) > 0 && net.Alive(p.ID()) {
				net.Kill(p.ID())
				killed = true
				break
			}
		}
		if !killed && !net.Step() {
			break
		}
	}
	if !killed {
		t.Skip("no responsible peer ever held the envelope (all delivered locally)")
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("acked insert incomplete after owner death: %+v", res)
	}
	if origin.Stats().WriteRetries == 0 {
		t.Error("write retry never fired")
	}
	// The fact must be readable through every index from another peer.
	for _, kind := range triple.AllIndexKinds {
		got := peers[1].LookupSync(kind, triple.IndexKey(tr, kind))
		found := false
		for _, e := range got.Entries {
			if e.Triple.Equal(tr) {
				found = true
			}
		}
		if !found {
			t.Errorf("fact missing from index %v after write failover", kind)
		}
	}
	if origin.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", origin.PendingOps())
	}
}

// TestAckedInsertDuplicateAcksDoNotOvercount: a retried entry whose
// original also landed produces two acks; the second must not complete
// the operation while another entry is still unacked.
func TestAckedInsertDuplicateAcksDoNotOvercount(t *testing.T) {
	net, peers := loadReplicated(87, 4, 1, 8, DefaultConfig())
	_ = net
	p := peers[0]
	qid, op := p.newOp(0, 3, trace.OpInsert, nil)
	p.mu.Lock()
	op.insertPend = map[uint8]store.Entry{0: {}, 1: {}, 2: {}}
	p.mu.Unlock()
	p.handleAck(ackMsg{QID: qid, Seq: 0}, p.id, 0)
	p.handleAck(ackMsg{QID: qid, Seq: 0}, p.id, 0) // duplicate
	p.handleAck(ackMsg{QID: qid, Seq: 1}, p.id, 0)
	h := &Handle{peer: p, op: op, qid: qid}
	if h.Done() {
		t.Fatal("duplicate ack completed the operation early")
	}
	p.handleAck(ackMsg{QID: qid, Seq: 2}, p.id, 0)
	if !h.Done() {
		t.Fatal("distinct acks did not complete the operation")
	}
}

// TestInsertRetryBudgetBounded: with every replica of a partition dead
// the retry loop must stop at its attempt budget, not spin forever.
func TestInsertRetryBudgetBounded(t *testing.T) {
	net, peers := loadReplicated(89, 4, 1, 8, DefaultConfig())
	origin := peers[0]
	tr := triple.TN("wdead", "age", 1234)
	// Kill every OTHER peer: only locally-owned entries can ack.
	for _, p := range peers[1:] {
		net.Kill(p.ID())
	}
	h := origin.InsertTripleAcked(tr, 9, nil)
	res := h.Wait(0)
	_ = res
	if got := origin.Stats().WriteRetries; got > 3*maxProbeAttempts {
		t.Errorf("retry budget blown: %d write retries", got)
	}
	if !h.Done() {
		// The op deadline timer eventually expires it; drive there.
		net.RunUntil(net.Now() + 3*time.Minute)
	}
	if !h.Done() {
		t.Error("acked insert never terminated with all owners dead")
	}
}
