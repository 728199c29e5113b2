package cost

import (
	"math"
	"testing"
	"time"
)

func TestLookupHopsLogarithmic(t *testing.T) {
	s := DefaultStats(1024)
	if got := s.LookupHops(); math.Abs(got-10) > 1e-9 {
		t.Errorf("log2(1024) = %v", got)
	}
	if DefaultStats(1).LookupHops() != 0 {
		t.Error("single partition routes in zero hops")
	}
}

func TestEstimatesScale(t *testing.T) {
	small, big := DefaultStats(16), DefaultStats(1024)
	if small.Lookup(1).Messages >= big.Lookup(1).Messages {
		t.Error("lookup cost must grow with network size")
	}
	// Broadcast is linear, lookup logarithmic: the gap must widen.
	gapSmall := small.Broadcast(0).Messages / small.Lookup(1).Messages
	gapBig := big.Broadcast(0).Messages / big.Lookup(1).Messages
	if gapBig <= gapSmall {
		t.Errorf("broadcast/lookup gap must widen: %v vs %v", gapSmall, gapBig)
	}
}

func TestRangeBetweenLookupAndBroadcast(t *testing.T) {
	s := DefaultStats(256)
	lk := s.Lookup(1).Messages
	rg := s.Range(0.1, 100).Messages
	bc := s.Broadcast(1000).Messages
	if !(lk < rg && rg < bc) {
		t.Errorf("expected lookup(%v) < range(%v) < broadcast(%v)", lk, rg, bc)
	}
}

func TestRangeFractionClamped(t *testing.T) {
	s := DefaultStats(64)
	if s.PartitionsForFraction(-1) != 1 || s.PartitionsForFraction(0) != 1 {
		t.Error("at least one partition answers any range")
	}
	if s.PartitionsForFraction(2) != 64 {
		t.Error("fraction must clamp to 1")
	}
}

func TestMultiLookupParallelLatency(t *testing.T) {
	s := DefaultStats(256)
	one := s.Lookup(1)
	many := s.MultiLookup(10, 10)
	if many.Latency != one.Latency {
		t.Error("parallel probes share latency")
	}
	if many.Messages != 10*one.Messages {
		t.Error("parallel probes multiply messages")
	}
}

func TestQGramCheaperThanBroadcastOnBigNetworks(t *testing.T) {
	s := DefaultStats(512)
	qg := s.QGramSearch(4, 3, 2, 10)
	bc := s.Broadcast(10)
	if qg.Messages >= bc.Messages {
		t.Errorf("q-gram (%v msgs) must beat broadcast (%v msgs) at 512 partitions",
			qg.Messages, bc.Messages)
	}
}

func TestPlusComposition(t *testing.T) {
	a := Estimate{Messages: 5, Latency: time.Second, Results: 100}
	b := Estimate{Messages: 7, Latency: 2 * time.Second, Results: 3}
	c := a.Plus(b)
	if c.Messages != 12 || c.Latency != 3*time.Second || c.Results != 3 {
		t.Errorf("Plus = %+v", c)
	}
}

func TestAttrCountFallback(t *testing.T) {
	s := DefaultStats(8)
	s.TriplesPerAttr["name"] = 42
	if s.AttrCount("name") != 42 || s.AttrCount("unknown") != s.DefaultAttrCount {
		t.Error("attribute count lookup")
	}
}

func TestShipCost(t *testing.T) {
	s := DefaultStats(256)
	if s.Ship(100).Messages != s.LookupHops() {
		t.Error("shipping a plan costs one routed payload")
	}
}

// TestProbeRTTLatencyAware: cached-probe pricing must track the
// observed per-replica round trip — a slow profile raises lookup
// latency estimates, a fast one lowers them, and messages stay put.
func TestProbeRTTLatencyAware(t *testing.T) {
	base := DefaultStats(64)
	base.CacheHitRate = 1 // price the cached path only
	def := base.Lookup(1)

	slow := *base
	slow.ProbeRTT = 10 * base.AvgLatency
	fast := *base
	fast.ProbeRTT = base.AvgLatency / 10

	if got := slow.Lookup(1); got.Latency <= def.Latency {
		t.Errorf("slow observed RTT did not raise the estimate: %v <= %v", got.Latency, def.Latency)
	} else if got.Messages != def.Messages {
		t.Errorf("ProbeRTT changed message estimate: %v vs %v", got.Messages, def.Messages)
	}
	if got := fast.Lookup(1); got.Latency >= def.Latency {
		t.Errorf("fast observed RTT did not lower the estimate: %v >= %v", got.Latency, def.Latency)
	}
	// With no observations the default two-hop synthetic applies.
	if base.cachedRTT() != base.lat(2) {
		t.Errorf("default cached RTT = %v, want %v", base.cachedRTT(), base.lat(2))
	}
	// MultiLookup's first-result latency moves the same way.
	if s, f := slow.MultiLookup(8, 8), fast.MultiLookup(8, 8); s.FirstLatency <= f.FirstLatency {
		t.Errorf("MultiLookup first latency ignores RTT: slow %v vs fast %v", s.FirstLatency, f.FirstLatency)
	}
}

// TestProbesPricedPerUpstreamBatch: k probes cost one multi-lookup per
// page of upstream bindings — unchanged within one page, and
// ceil(k/PageSize) batches beyond it.
func TestProbesPricedPerUpstreamBatch(t *testing.T) {
	s := DefaultStats(64)
	s.PageSize = 16
	if got, want := s.Probes(16, 16), s.MultiLookup(16, 16); got != want {
		t.Errorf("one page of probes: %+v, want the single batch %+v", got, want)
	}
	got, one := s.Probes(40, 40), s.MultiLookup(14, 40)
	if got.Messages != 3*one.Messages || got.Latency != one.Latency || got.Results != 40 {
		t.Errorf("40 probes at page 16: %+v, want three batches of %+v", got, one)
	}
	s.PageSize = 0
	if got, want := s.Probes(40, 40), s.MultiLookup(40, 40); got != want {
		t.Errorf("paging off: %+v, want one batch %+v", got, want)
	}
}
