// Message-budget regression guard: the ranked top-5, warm index-join,
// paged full-scan and churn top-k scenarios (internal/benchscen — the
// same constructors cmd/benchjson records into BENCH_PR5.json, so
// budget and record measure identical workloads by construction) run
// on the 64-peer simnet and fail if their message counts exceed the
// checked-in budgets. The budgets sit ~25-40% above the measured
// values, so a future change that makes the message layer chatty —
// losing the routing-cache fast path, breaking probe batching, pulling
// pages past an early-out, retrying replicas unboundedly — fails CI
// instead of silently regressing.
package unistore_test

import (
	"testing"

	"unistore/internal/benchscen"
	"unistore/internal/core"
)

// Checked-in budgets (messages per query, deterministic 64-peer
// simnet). Measured at PR 3: topk 32, index-join warm 11, paged scan
// 106. Measured at PR 4: churn top-k with 10% dead peers and failover
// retries 35. Measured at PR 5: pushed-down GROUP BY over ~600
// publication rows 44 (the centralized fallback moves 226).
// Measured at PR 8: restart-rejoin catch-up on the 16-peer durability
// scenario 40 (the empty-disk full sync moves 314).
// Re-measured at PR 10 (deterministic spec-seeded routing + shortest-
// path reference choice): topk 25, index-join warm 13, paged scan 94,
// group-by 38, churn top-k 39, rejoin catch-up 41 — budgets kept.
// Measured at PR 12 on the 16×2 page-16 point-lookup scenario: the
// bound-subject star 4 (5 on a cold cache) and the ground-subject star
// 2, down from 130 and 5 when the star's patterns ran as
// attribute-region scans and a migrated second OID lookup.
const (
	budgetTopK          = 40
	budgetIndexJoinWarm = 16
	budgetPagedScan     = 135
	budgetChurnTopK     = 50
	budgetGroupByAgg    = 60
	budgetRejoinCatchup = 60
	budgetLookupJoin    = 7
	budgetLookupOID     = 3
	// budgetFlowInflightBytes bounds the worst per-peer peak of queued
	// bytes on the slow-replica flow scenario with credit windows on.
	// Measured at PR 9: 32.8KB controlled (371KB uncontrolled) — a
	// sender that stops honoring receiver windows blows through this.
	// Re-measured at PR 10: 56.3KB — deterministic shortest-path
	// routing funnels more concurrent senders (one credit window each)
	// through subtree-root peers; an ungated bulk stream still lands
	// 5x+ above the budget.
	budgetFlowInflightBytes = 72 << 10
)

// measure runs one query and returns its settled message count.
func measure(t *testing.T, c *core.Cluster, src string) int {
	t.Helper()
	before := c.Net().Stats().MessagesSent
	res, err := c.QueryFrom(0, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Fatalf("%q returned nothing", src)
	}
	c.Net().Settle()
	return c.Net().Stats().MessagesSent - before
}

func TestMessageBudgetRankedTopK(t *testing.T) {
	msgs := measure(t, benchscen.TopK(), benchscen.TopKQuery)
	if msgs > budgetTopK {
		t.Errorf("ranked top-5 sent %d messages, budget %d", msgs, budgetTopK)
	}
	t.Logf("ranked top-5: %d messages (budget %d)", msgs, budgetTopK)
}

func TestMessageBudgetIndexJoinWarm(t *testing.T) {
	c := benchscen.IndexJoin(false)
	plan, err := benchscen.IndexJoinPlan()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the origin's routing cache, then measure.
	c.Engine(0).RunPlan(plan)
	c.Net().Settle()
	before := c.Net().Stats().MessagesSent
	bs, _ := c.Engine(0).RunPlan(plan)
	c.Net().Settle()
	msgs := c.Net().Stats().MessagesSent - before
	if len(bs) == 0 {
		t.Fatal("index join returned nothing")
	}
	if msgs > budgetIndexJoinWarm {
		t.Errorf("warm index join sent %d messages, budget %d", msgs, budgetIndexJoinWarm)
	}
	t.Logf("warm index join: %d messages (budget %d)", msgs, budgetIndexJoinWarm)
}

// TestMessageBudgetLookupStars is the DHT index-join budget: both star
// queries must plan their same-subject patterns as one OID-index
// probe step — per bound subject, or once for the ground OID — instead
// of attribute-region scans or a migrated second lookup.
func TestMessageBudgetLookupStars(t *testing.T) {
	c := benchscen.Lookup()
	for _, tc := range []struct {
		name, src, plan string
		budget          int
	}{
		{"join", benchscen.LookupJoinQuery,
			`av-lookup(?p,'email','p42@example.org') → oid-lookup(?p,'name',?n)+(?p,'age',?a) join[p]`, budgetLookupJoin},
		{"oid", benchscen.LookupOIDQuery,
			`oid-lookup('person-00042','name',?n)+('person-00042','age',?a)`, budgetLookupOID},
	} {
		res, err := c.QueryFrom(0, tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != tc.plan {
			t.Errorf("%s plan\n got %s\nwant %s", tc.name, res.Plan, tc.plan)
		}
		msgs := measure(t, c, tc.src)
		if msgs > tc.budget {
			t.Errorf("%s star sent %d messages, budget %d", tc.name, msgs, tc.budget)
		}
		t.Logf("%s star: %d messages (budget %d)", tc.name, msgs, tc.budget)
	}
}

func TestMessageBudgetPagedScan(t *testing.T) {
	c, _ := benchscen.Scan()
	msgs := measure(t, c, benchscen.ScanQuery)
	if msgs > budgetPagedScan {
		t.Errorf("paged full scan sent %d messages, budget %d", msgs, budgetPagedScan)
	}
	t.Logf("paged full scan: %d messages (budget %d)", msgs, budgetPagedScan)
}

// TestMessageBudgetGroupByAgg is the in-network aggregation budget:
// the pushed-down GROUP BY must keep shipping group states, not rows —
// losing the pushdown (or paging group pages past need) trips it. The
// centralized fallback on the same data measures ~5× more messages, so
// the budget also implicitly guards the strategy choice.
func TestMessageBudgetGroupByAgg(t *testing.T) {
	c, _ := benchscen.GroupByAgg(true)
	msgs := measure(t, c, benchscen.GroupByAggQuery)
	if msgs > budgetGroupByAgg {
		t.Errorf("pushed-down group-by sent %d messages, budget %d", msgs, budgetGroupByAgg)
	}
	t.Logf("pushed-down group-by: %d messages (budget %d)", msgs, budgetGroupByAgg)
}

// TestMessageBudgetChurnTopK is the replica-read budget: the ranked
// top-5 with 10% of the nodes killed mid-flight must recover through
// hedges and re-showers without blowing the message budget — failover
// is a bounded handful of extra envelopes, not a broadcast storm.
func TestMessageBudgetChurnTopK(t *testing.T) {
	cr, err := benchscen.ChurnTopKRun(benchscen.ChurnTopK(false))
	if err != nil {
		t.Fatal(err)
	}
	if cr.Rows == 0 {
		t.Fatal("churn top-k returned nothing")
	}
	if cr.Dead == 0 {
		t.Fatal("churn top-k killed nobody")
	}
	if cr.Msgs > budgetChurnTopK {
		t.Errorf("churn top-5 sent %d messages, budget %d", cr.Msgs, budgetChurnTopK)
	}
	t.Logf("churn top-5: %d messages with %d dead peers (budget %d)", cr.Msgs, cr.Dead, budgetChurnTopK)
}

// TestMessageBudgetRejoinCatchup is the restart-recovery budget: a
// WAL-recovered replica rejoining its group must catch up through the
// digest delta — a join handshake, two digests, one pull with identity
// hashes, and pages carrying only the writes it missed. Losing the
// delta path (falling back to full-state sync, shipping whole buckets,
// or re-pulling buckets the rejoiner is ahead on) costs hundreds of
// messages on this scenario and trips the budget.
func TestMessageBudgetRejoinCatchup(t *testing.T) {
	r, err := benchscen.DurabilityRun()
	if err != nil {
		t.Fatal(err)
	}
	if !r.DeltaExact {
		t.Fatal("rejoined replica did not converge to its sibling")
	}
	if r.Recovered != r.AckedAtKill {
		t.Fatalf("WAL recovery rebuilt %d facts, victim acked %d", r.Recovered, r.AckedAtKill)
	}
	if r.DeltaMsgs > budgetRejoinCatchup {
		t.Errorf("rejoin catch-up sent %d messages, budget %d", r.DeltaMsgs, budgetRejoinCatchup)
	}
	t.Logf("rejoin catch-up: %d messages (budget %d; full sync moves %d)",
		r.DeltaMsgs, budgetRejoinCatchup, r.FullMsgs)
}

// TestMessageBudgetFlowInflightBytes is the backpressure budget: under
// the mixed read/write workload with one 10x-throttled replica, no
// peer's inbound queue may peak above the checked-in byte budget while
// flow control is on, and the throttled rejoiner must still converge
// exactly. Losing credit gating on any bulk stream (gossip fan-out,
// digest catch-up, paged scans) multiplies the peak several-fold and
// trips this before it ships.
func TestMessageBudgetFlowInflightBytes(t *testing.T) {
	res, err := benchscen.FlowRun(true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CatchupExact {
		t.Fatal("throttled rejoiner did not converge to its sibling")
	}
	if res.RowCount == 0 {
		t.Fatal("flow scenario returned no rows")
	}
	if res.MaxInflightBytes > budgetFlowInflightBytes {
		t.Errorf("peak in-flight %dB per peer, budget %dB", res.MaxInflightBytes, budgetFlowInflightBytes)
	}
	if res.FlowBulkSends == 0 {
		t.Error("no credit-gated bulk sends fired; flow control is vacuous")
	}
	t.Logf("flow: peak in-flight %dB (budget %dB), tail stall %.0fms, %d bulk sends / %d stalls",
		res.MaxInflightBytes, budgetFlowInflightBytes, res.SlowStallMS, res.FlowBulkSends, res.FlowStalls)
}
