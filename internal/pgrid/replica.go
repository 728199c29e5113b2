package pgrid

import (
	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// This file implements the replica-aware read path: every remote read
// targets a replica SET instead of a single owner. Probes pick a
// replica by load-aware power-of-two-choices over the cached owner set
// (simnet's per-node backlog is the load signal, the per-owner latency
// EWMA the tie-break), are hedged to a sibling replica when a
// configurable deadline passes unanswered, and fall back to fully
// routed lookups once the replica set is exhausted. Range scans track
// which partitions have fully answered and re-shower only the missing
// key-space gaps, so a query whose serving peer died mid-scan still
// returns exact results. All of it is an accelerator layered over
// P-Grid's best-effort routing: the routed path remains the authority
// a read can always fall back to.

// --- Probe dispatch ----------------------------------------------------------

// dispatchProbes routes the probe keys of one key-tracked operation:
// locally-owned keys answer in one loopback batch, keys with a cached
// owner set travel direct to a load-chosen replica (grouped per
// partition, hedging armed), and the rest take the routed path.
func (p *Peer) dispatchProbes(qid uint64, op *pendingOp, kind uint8, ks []keys.Key) {
	// Single-key fast path: the dominant Lookup shape needs no group
	// index map or slice bookkeeping — resolve the one key and go.
	if len(ks) == 1 {
		k := ks[0]
		p.mu.RLock()
		tc := op.tc
		if k.HasPrefix(p.path) {
			p.mu.RUnlock()
			p.serveLocalProbes(qid, op, kind, ks, tc)
			return
		}
		set, ok := p.cachedSetLocked(k)
		var spath keys.Key
		if ok {
			spath = set.path
		}
		p.mu.RUnlock()
		if ok {
			p.stats.cacheHits.Add(1)
			p.sendProbeGroup(qid, op, kind, ks, spath, nil, 0, tc)
			return
		}
		p.stats.cacheMisses.Add(1)
		p.routeProbe(qid, kind, k, op.aggSpec, tc)
		return
	}
	var local []keys.Key
	type group struct {
		path keys.Key
		ks   []keys.Key
	}
	var groups []*group // first-seen order: deterministic sends
	idx := make(map[string]*group)
	var routed []keys.Key
	p.mu.RLock()
	tc := op.tc
	for _, k := range ks {
		if k.HasPrefix(p.path) {
			local = append(local, k)
			continue
		}
		set, ok := p.cachedSetLocked(k)
		if ok {
			p.stats.cacheHits.Add(1)
			ps := set.path.String()
			g := idx[ps]
			if g == nil {
				g = &group{path: set.path}
				idx[ps] = g
				groups = append(groups, g)
			}
			g.ks = append(g.ks, k)
			continue
		}
		p.stats.cacheMisses.Add(1)
		routed = append(routed, k)
	}
	p.mu.RUnlock()
	if len(local) > 0 {
		p.serveLocalProbes(qid, op, kind, local, tc)
	}
	for _, g := range groups {
		p.sendProbeGroup(qid, op, kind, g.ks, g.path, nil, 0, tc)
	}
	for _, k := range routed {
		p.routeProbe(qid, kind, k, op.aggSpec, tc)
	}
}

// serveLocalProbes answers probe keys owned by this peer as one batch.
// The response travels through the network like any other so completion
// callbacks never fire inside the issuing call.
func (p *Peer) serveLocalProbes(qid uint64, op *pendingOp, kind uint8, local []keys.Key, tc trace.Ctx) {
	// The request leg is a function call (zero messages); the loopback
	// response below is a real self-send, so the span's outbound side is
	// charged when the origin absorbs its rider.
	ws := p.beginSpan(tc, trace.OpMultiLookup, 0, 0)
	resp := queryResp{QID: qid, Probes: len(local), ProbeKeys: local}
	p.stampResp(&resp)
	var collected []store.Entry
	for _, k := range local {
		p.stats.delivered.Add(1)
		entries := p.store.Lookup(triple.IndexKind(kind), k)
		if op.aggSpec != nil {
			collected = append(collected, entries...)
			continue
		}
		resp.Entries = append(resp.Entries, entries...)
		resp.Count += len(entries)
	}
	if op.aggSpec != nil {
		aggProbeResp(&resp, op.aggSpec, collected)
	}
	resp.TS = p.finishSpan(ws, tc.TraceID, resp.Count)
	p.net.Send(p.id, p.id, KindResponse, resp)
}

// routeProbe sends one probe down the ordinary prefix-routed path (the
// cache statistics for it were already taken by the caller). A non-nil
// spec pushes the aggregation along with it.
func (p *Peer) routeProbe(qid uint64, kind uint8, k keys.Key, spec *agg.Spec, tc trace.Ctx) {
	p.forward(routeEnvelope{Target: k, Inner: lookupReq{
		QID: qid, Origin: p.id, Kind: kind, Key: k, Agg: spec, TC: tc,
	}})
}

// sendProbeGroup sends one partition's probe keys direct to a chosen
// replica of its cached owner set, registering the group for the hedge
// timer. With no live untried replica left it invalidates the set and
// falls back to routed lookups (reporting false).
func (p *Peer) sendProbeGroup(qid uint64, op *pendingOp, kind uint8, ks []keys.Key, path keys.Key, tried map[simnet.NodeID]bool, attempt int, tc trace.Ctx) bool {
	p.mu.Lock()
	set, ok := p.cache.entries[path.String()]
	var target Ref
	if ok {
		target, ok = p.pickReplicaLocked(set, tried)
	}
	if !ok {
		if tried == nil {
			// Every known owner is dead (first attempts only: a retry
			// exhausting its alternates just means they were all tried).
			if p.cache.dropLocked(path) {
				p.stats.cacheInvalidations.Add(1)
			}
		}
		spec := op.aggSpec
		p.mu.Unlock()
		for _, k := range ks {
			p.routeProbe(qid, kind, k, spec, tc)
		}
		return false
	}
	if op.done {
		p.mu.Unlock()
		return true
	}
	op.groupSeq++
	gid := op.groupSeq
	if op.groups == nil {
		op.groups = make(map[uint64]*probeGroup)
	}
	if tried == nil {
		tried = make(map[simnet.NodeID]bool)
	}
	tried[target.ID] = true
	op.groups[gid] = &probeGroup{
		kind: kind, keys: ks, target: target.ID, path: path,
		sentAt: p.net.Now(), attempt: attempt, tried: tried,
	}
	spec := op.aggSpec
	p.mu.Unlock()
	p.stats.probeGroups.Add(1)
	p.net.Send(p.id, target.ID, KindMultiLookup, multiLookupReq{
		QID: qid, Origin: p.id, Kind: kind, Keys: ks, Agg: spec, TC: tc,
	})
	if hedge := p.cfg.hedgeAfter(); hedge > 0 {
		p.net.After(hedge, func() { p.hedgeProbeGroup(qid, gid) })
	}
	return true
}

// pickReplicaLocked chooses a live replica from an owner set by
// power-of-two-choices: sample two candidates, keep the one with the
// smaller network backlog PLUS flow-control pressure (deferred bulk
// sends stalled on the candidate's credit window — the backpressure
// signal feeding back into replica selection), breaking ties by
// latency EWMA. Config's ReadReplicas bounds the candidates considered
// (1 pins reads to the primary — the single-owner baseline). Callers
// hold p.mu; the flow table's own innermost lock makes the penalty
// reads safe here.
func (p *Peer) pickReplicaLocked(set *ownerSet, tried map[simnet.NodeID]bool) (Ref, bool) {
	cands := set.live(p.net, p.cfg.ReadReplicas, tried)
	switch len(cands) {
	case 0:
		return Ref{}, false
	case 1:
		return set.owners[cands[0]].Ref, true
	}
	i := cands[p.net.Intn(len(cands))]
	j := cands[p.net.Intn(len(cands))]
	for j == i {
		j = cands[p.net.Intn(len(cands))]
	}
	li := p.net.Load(set.owners[i].ID) + p.flow.penalty(set.owners[i].ID)
	lj := p.net.Load(set.owners[j].ID) + p.flow.penalty(set.owners[j].ID)
	if lj < li || (lj == li && set.owners[j].ewma < set.owners[i].ewma) {
		i = j
	}
	return set.owners[i].Ref, true
}

// hedgeProbeGroup fires when a probe group's deadline passes: keys
// still unanswered are re-sent to the next replica (penalizing the
// silent one's health EWMA), and once the attempt budget is spent they
// fall back to fully routed lookups. Answered groups dissolve quietly.
func (p *Peer) hedgeProbeGroup(qid, gid uint64) {
	p.mu.Lock()
	op, ok := p.pending[qid]
	if !ok || op.done {
		p.mu.Unlock()
		return
	}
	g, ok := op.groups[gid]
	if !ok {
		p.mu.Unlock()
		return
	}
	delete(op.groups, gid)
	var unanswered []keys.Key
	for _, k := range g.keys {
		if op.probeWant[k.String()] {
			unanswered = append(unanswered, k)
		}
	}
	if len(unanswered) == 0 {
		p.mu.Unlock()
		return
	}
	if set, ok := p.cache.entries[g.path.String()]; ok {
		set.penalize(g.target, p.cfg.hedgeAfter())
	}
	kind, attempt, tried, path := g.kind, g.attempt+1, g.tried, g.path
	spec := op.aggSpec
	tc := op.tc
	tc.Flags |= trace.FlagHedge
	p.mu.Unlock()
	p.stats.probeRetries.Add(1)
	if attempt < maxProbeAttempts && p.sendProbeGroup(qid, op, kind, unanswered, path, tried, attempt, tc) {
		return
	}
	if attempt >= maxProbeAttempts {
		for _, k := range unanswered {
			p.routeProbe(qid, kind, k, spec, tc)
		}
	}
}

// settleGroupsLocked dissolves probe groups whose keys have all been
// answered, folding the winner's round trip into its cached latency
// EWMA. Callers hold p.mu.
func (p *Peer) settleGroupsLocked(op *pendingOp, from simnet.NodeID) {
	if len(op.groups) == 0 {
		return
	}
	now := p.net.Now()
	for gid, g := range op.groups {
		satisfied := true
		for _, k := range g.keys {
			if op.probeWant[k.String()] {
				satisfied = false
				break
			}
		}
		if satisfied {
			if g.target == from {
				p.observeOwnerLocked(g.path, from, now-g.sentAt)
			}
			delete(op.groups, gid)
		}
	}
}

// siblingReplica picks a live replica of the partition at `path` other
// than `dead` — the page-pull redirect target when a paged scan's
// server dies between pages.
func (p *Peer) siblingReplica(path keys.Key, dead simnet.NodeID) (simnet.NodeID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.siblingReplicaLocked(path, dead)
}

// siblingReplicaLocked is siblingReplica with p.mu already held.
func (p *Peer) siblingReplicaLocked(path keys.Key, dead simnet.NodeID) (simnet.NodeID, bool) {
	if p.cfg.DisableRouteCache || p.cfg.ReadReplicas == 1 || path.Len() == 0 {
		return 0, false
	}
	set, ok := p.cache.entries[path.String()]
	if !ok {
		return 0, false
	}
	ref, ok := p.pickReplicaLocked(set, map[simnet.NodeID]bool{dead: true})
	if !ok {
		return 0, false
	}
	return ref.ID, true
}

// --- Page-pull hedging -------------------------------------------------------

// armPagePull schedules the pull-level hedge of one in-flight page
// request: if the partition's cursor has not moved past cont when the
// hedge deadline fires, the pull (or its answer) was swallowed — most
// likely the server died with the request already sent — and the pull
// re-sends to a live sibling replica.
func (p *Peer) armPagePull(qid uint64, path keys.Key, cont pageCont, server simnet.NodeID) {
	hedge := p.cfg.hedgeAfter()
	if hedge == 0 {
		return
	}
	p.net.After(hedge, func() { p.hedgePagePull(qid, path, cont, server) })
}

// hedgePagePull fires at the pull hedge deadline. A cursor that moved
// (or a finished partition) means the stream is healthy and the timer
// dissolves; a stalled cursor re-sends the pull — direct to a sibling
// replica with the stream claim transferred (so the sibling's pages
// are accepted and a late original is dropped whole), or routed with
// the claim released when no sibling is cached. The per-cursor hedge
// budget keeps a persistently wedged position from looping; past it
// the scan-level re-shower backstop still applies.
func (p *Peer) hedgePagePull(qid uint64, path keys.Key, cont pageCont, server simnet.NodeID) {
	p.mu.Lock()
	op, ok := p.pending[qid]
	if !ok || op.done || op.scan == nil {
		p.mu.Unlock()
		return
	}
	sc := op.scan
	key := path.String()
	cu, ok := sc.cursors[key]
	if !ok || !contEqual(cu.cont, cont) {
		p.mu.Unlock()
		return
	}
	if cu.hedges >= maxProbeAttempts {
		p.mu.Unlock()
		return
	}
	cu.hedges++
	tc := op.tc
	tc.Flags |= trace.FlagRetry
	target, direct := p.siblingReplicaLocked(path, server)
	if cl, claimed := sc.claims[key]; claimed {
		if direct {
			cl.from = target
			cl.last = p.net.Now()
		} else {
			// Routed pull: whichever replica answers re-claims; the
			// claim dedup still drops whichever stream loses the race.
			delete(sc.claims, key)
		}
	}
	p.mu.Unlock()
	p.stats.pageHedges.Add(1)
	// The hedge abandons the stalled server: release any credit still
	// charged against it so its silence cannot strand unrelated bulk
	// sends (the zero-credit-deadlock rule).
	p.runFlow(p.flow.releaseNode(server))
	wb, wm := p.advertiseWindow()
	req := pageReq{QID: qid, Origin: p.id, Cont: cont, WinBytes: wb, WinMsgs: wm, TC: tc}
	if direct {
		p.net.Send(p.id, target, KindPage, req)
		p.armPagePull(qid, path, cont, target)
		return
	}
	p.route(path, req)
	p.armPagePull(qid, path, cont, server)
}

// --- Write-path failover -----------------------------------------------------

// armInsertRetry schedules the ack watchdog of an acked insert.
func (p *Peer) armInsertRetry(qid uint64, attempt int) {
	hedge := p.cfg.hedgeAfter()
	if hedge == 0 || attempt >= maxProbeAttempts {
		return
	}
	p.net.After(hedge, func() { p.retryInserts(qid, attempt) })
}

// retryInserts re-routes the entries of an acked insert whose acks are
// still missing at the hedge deadline — the envelope (or its ack) was
// swallowed, typically by the responsible primary dying with the
// message in flight. Routing re-consults the cached owner set and the
// liveness-checked reference tables, so the retry lands on a live
// replica of the partition; the store's version tie-break makes a
// duplicate delivery harmless.
func (p *Peer) retryInserts(qid uint64, attempt int) {
	p.mu.Lock()
	op, ok := p.pending[qid]
	if !ok || op.done || len(op.insertPend) == 0 {
		p.mu.Unlock()
		return
	}
	type pend struct {
		seq uint8
		e   store.Entry
	}
	var missing []pend
	for seq, e := range op.insertPend {
		missing = append(missing, pend{seq, e})
	}
	tc := op.tc
	tc.Flags |= trace.FlagRetry
	p.mu.Unlock()
	p.stats.writeRetries.Add(int64(len(missing)))
	for _, m := range missing {
		// Refund the entry's flow-control charge first: the original
		// send (possibly still parked in a dead receiver's deferred
		// queue) is superseded by this retry, which goes UNGATED — the
		// failover path must never wait on credit a dead receiver can
		// no longer return.
		p.runFlow(p.flow.releaseKey(flowKey{qid: qid, seq: m.seq}))
		p.route(m.e.Key, insertReq{Entry: m.e, QID: qid, Origin: p.id, Seq: m.seq, TC: tc})
	}
	p.armInsertRetry(qid, attempt+1)
}

// --- Range-scan failover -----------------------------------------------------

// hasCovered reports whether a partition path already delivered its
// final answer for this scan.
func (s *scanState) hasCovered(path keys.Key) bool {
	for _, c := range s.covered {
		if c.Equal(path) {
			return true
		}
	}
	return false
}

// armScanRetry schedules the churn backstop of a range query: if the
// operation is still pending when the (much longer than any healthy
// shower) deadline passes, the partitions that never finished
// answering are re-showered through fresh — live — references.
func (p *Peer) armScanRetry(qid uint64) {
	hedge := p.cfg.hedgeAfter()
	if hedge == 0 {
		return
	}
	p.net.After(hedge*scanRetryFactor, func() { p.retryScan(qid) })
}

// retryScan re-showers the key-space gaps a pending range query never
// got final answers for. Retry showers carry zero share mass — their
// mass could double-count against late original responses and complete
// the operation while a partition is still silent — so firing the
// first retry switches the operation to coverage-based completion:
// done when the partitions that answered tile the queried range.
// Duplicate rows from a late original racing a retry are dropped by
// the covered-partition check in handleResponse.
func (p *Peer) retryScan(qid uint64) {
	p.mu.Lock()
	op, ok := p.pending[qid]
	if !ok || op.done || op.scan == nil {
		p.mu.Unlock()
		return
	}
	sc := op.scan
	if sc.retries >= maxScanRetries {
		p.mu.Unlock()
		return
	}
	sc.coverage = true
	// Release the stream claims of dead or stalled owners (no progress
	// for a whole retry interval). A released stream that had already
	// delivered pages resumes at its stored cursor — a routed page
	// pull any replica of the partition can serve, so rows already
	// streamed are never replayed. Partitions that never responded
	// become gaps for the re-shower. Claims still making progress
	// count as covered for GAP computation only — their stream will
	// finish on its own, so re-showering them would just burn
	// messages — while completion keeps waiting for their final page.
	now := p.net.Now()
	interval := p.cfg.hedgeAfter() * scanRetryFactor
	active := append([]keys.Key(nil), sc.covered...)
	for key, cl := range sc.claims {
		if !p.net.Alive(cl.from) || now-cl.last >= interval {
			// Released: the resumed stream's first response (or the
			// re-shower's) re-claims. The cursor memo survives, so the
			// partition resumes below instead of re-showering.
			delete(sc.claims, key)
			continue
		}
		active = append(active, cl.path)
	}
	// Partitions with page progress but no live stream resume at their
	// memoized cursor — a routed pull any replica can serve — and never
	// count as gaps, so their delivered rows are not replayed even if a
	// previous resume pull was itself lost.
	var resumes []*scanCursor
	for key, cu := range sc.cursors {
		if _, live := sc.claims[key]; live {
			continue
		}
		resumes = append(resumes, cu)
		active = append(active, cu.path)
	}
	gaps := uncoveredPrefixes(sc.r, active)
	kind, pageSize, probe, desc, aggSpec, subjects := sc.kind, sc.pageSize, sc.probe, sc.desc, sc.agg, sc.subjects
	if len(gaps) == 0 && len(resumes) == 0 {
		// Covered while the timer was in flight: the completion rule
		// just changed, so check it here — no further response may.
		if op.completionSatisfied() {
			fire := p.finishOpLocked(qid, op, true)
			p.mu.Unlock()
			fire()
			return
		}
		// Streams still active: keep watching them.
		p.mu.Unlock()
		p.armScanRetry(qid)
		return
	}
	sc.retries++ // only rounds that re-send spend the retry budget
	r := sc.r
	tc := op.tc
	tc.Flags |= trace.FlagRetry
	p.mu.Unlock()
	p.stats.scanRetries.Add(1)
	wb, wm := p.advertiseWindow()
	for _, cu := range resumes {
		p.route(cu.path, pageReq{QID: qid, Origin: p.id, Cont: cu.cont, WinBytes: wb, WinMsgs: wm, TC: tc})
	}
	for _, g := range gaps {
		p.handleRange(rangeMsg{
			QID: qid, Origin: p.id, Kind: kind,
			R: clipRangeToPrefix(r, g), Level: 0, Share: 0,
			Probe: probe, PageSize: pageSize, Desc: desc, Agg: aggSpec,
			Subjects: subjects, TC: tc,
		}, 0)
	}
	p.armScanRetry(qid)
}

// contEqual reports whether two continuation tokens name the same
// page position (everything but the constant transport fields). An
// aggregated scan's position lives in the group-key cursor, so it
// participates too — successive group pages share the same key range.
func contEqual(a, b pageCont) bool {
	return a.Kind == b.Kind && a.SkipAtLo == b.SkipAtLo && a.Desc == b.Desc &&
		a.R.Lo.Equal(b.R.Lo) && a.R.Hi.Equal(b.R.Hi) && a.R.HiOpen == b.R.HiOpen &&
		a.Cursor.Equal(b.Cursor) &&
		(a.Agg == nil) == (b.Agg == nil) && a.AggAfter == b.AggAfter
}

// uncoveredPrefixes returns the minimal trie prefixes overlapping r
// that no covered partition path accounts for — the gaps a scan retry
// must re-shower. The recursion only descends while some covered path
// strictly extends the prefix, so it is bounded by the deepest
// answered partition.
func uncoveredPrefixes(r keys.Range, covered []keys.Key) []keys.Key {
	var out []keys.Key
	var rec func(prefix keys.Key)
	rec = func(prefix keys.Key) {
		if !r.OverlapsPrefix(prefix) {
			return
		}
		deeper := false
		for _, c := range covered {
			if prefix.HasPrefix(c) {
				return // wholly inside an answered partition
			}
			if c.HasPrefix(prefix) && c.Len() > prefix.Len() {
				deeper = true
			}
		}
		if !deeper {
			out = append(out, prefix)
			return
		}
		rec(prefix.Append(0))
		rec(prefix.Append(1))
	}
	rec(keys.Empty)
	return out
}

// clipRangeToPrefix intersects a query range with a trie prefix's key
// region, so a retry shower only revisits the missing gap.
func clipRangeToPrefix(r keys.Range, prefix keys.Key) keys.Range {
	out := keys.PrefixRange(prefix)
	if r.Lo.Compare(out.Lo) > 0 {
		out.Lo = r.Lo
	}
	if r.HiOpen && (!out.HiOpen || r.Hi.Compare(out.Hi) < 0) {
		out.Hi, out.HiOpen = r.Hi, true
	}
	return out
}
