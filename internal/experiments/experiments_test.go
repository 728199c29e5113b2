package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// The experiments are validated at reduced scale: each must run, and
// its headline claim must hold in shape.

func TestE1EighteenEntries(t *testing.T) {
	tab := E1TriplePlacement()
	found := false
	for _, row := range tab.Rows() {
		if strings.HasPrefix(row[0], "TOTAL") {
			found = true
			if row[1] != "18" {
				t.Errorf("total entries = %s, want 18", row[1])
			}
		}
	}
	if !found {
		t.Fatal("no TOTAL row")
	}
}

func TestE2Logarithmic(t *testing.T) {
	tab := E2RoutingHops(0.25) // up to 256 peers
	for _, row := range tab.Rows() {
		avg, _ := strconv.ParseFloat(row[1], 64)
		log2, _ := strconv.ParseFloat(row[3], 64)
		if avg > log2+1 {
			t.Errorf("peers=%s: avg hops %.2f exceeds log2+1=%.2f", row[0], avg, log2+1)
		}
	}
}

func TestE3LatencySeconds(t *testing.T) {
	tab := E3QueryLatency(0.25) // up to 100 peers
	for _, row := range tab.Rows() {
		if !strings.Contains(row[1], "ms") && !strings.Contains(row[1], "s") {
			t.Errorf("latency cell unparsable: %q", row[1])
		}
	}
}

func TestE4VariantsDiffer(t *testing.T) {
	tab := E4PlanVariants(0.5)
	msgs := map[string]string{}
	for _, row := range tab.Rows() {
		msgs[row[0]] = row[1]
	}
	if msgs["optimizer on (auto)"] == msgs["force broadcast"] {
		t.Error("optimizer-on and broadcast variants should differ in messages")
	}
	// Results must agree across variants.
	var results []string
	for _, row := range tab.Rows() {
		results = append(results, row[3])
	}
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatalf("plan variants disagree on results: %v", results)
		}
	}
}

func TestE5QGramWins(t *testing.T) {
	tab := E5Similarity(0.25)
	for _, row := range tab.Rows() {
		qm, _ := strconv.Atoi(row[1])
		bm, _ := strconv.Atoi(row[2])
		if qm >= bm {
			t.Errorf("confs=%s: qgram %d msgs >= broadcast %d", row[0], qm, bm)
		}
		if row[3] != row[4] {
			t.Errorf("confs=%s: access paths disagree (%s vs %s)", row[0], row[3], row[4])
		}
	}
}

func TestE6AdaptiveBalances(t *testing.T) {
	tab := E6LoadBalance(0.25)
	rows := tab.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	maxBal, _ := strconv.Atoi(rows[0][1])
	maxAda, _ := strconv.Atoi(rows[1][1])
	if maxAda >= maxBal {
		t.Errorf("adaptive max load %d must beat balanced %d", maxAda, maxBal)
	}
}

func TestE7SkylineRuns(t *testing.T) {
	tab := E7Skyline(0.25)
	for _, row := range tab.Rows() {
		size, _ := strconv.Atoi(row[1])
		if size <= 0 {
			t.Errorf("empty skyline at persons=%s", row[0])
		}
		topM, _ := strconv.Atoi(row[4])
		fullM, _ := strconv.Atoi(row[5])
		if topM <= 0 || fullM <= 0 {
			t.Errorf("missing message counts: %v", row)
		}
	}
}

func TestE8AntiEntropyRepairs(t *testing.T) {
	tab := E8Updates(0.5)
	for _, row := range tab.Rows() {
		if row[3] != "true" {
			t.Errorf("loss=%s: anti-entropy did not repair (%v)", row[0], row)
		}
	}
	// At zero loss all three replicas are fresh immediately.
	if tab.Rows()[0][1] != "3" {
		t.Errorf("zero loss should reach all 3 replicas eagerly: %v", tab.Rows()[0])
	}
}

func TestE9PGridPrunes(t *testing.T) {
	tab := E9RangeVsChord(0.25)
	for _, row := range tab.Rows() {
		pg, _ := strconv.Atoi(row[2])
		ch, _ := strconv.Atoi(row[3])
		if pg >= ch {
			t.Errorf("peers=%s sel=%s: P-Grid %d msgs >= Chord %d", row[0], row[1], pg, ch)
		}
		if row[4] != row[5] {
			t.Errorf("result disagreement: %v", row)
		}
	}
}

func TestE10MappingsDoubleRecall(t *testing.T) {
	tab := E10Mappings(0.5)
	rows := tab.Rows()
	plain, _ := strconv.Atoi(rows[0][1])
	mapped, _ := strconv.Atoi(rows[1][1])
	if mapped != 2*plain {
		t.Errorf("mapped recall %d, want exactly double %d", mapped, plain)
	}
}

func TestE11MergeReachability(t *testing.T) {
	tab := E11Merge(0.5)
	row := tab.Rows()[0]
	for _, cell := range []string{row[2], row[3]} {
		parts := strings.Split(cell, "/")
		ok, _ := strconv.Atoi(parts[0])
		total, _ := strconv.Atoi(parts[1])
		if ok*10 < total*8 {
			t.Errorf("post-merge reachability too low: %s", cell)
		}
	}
}

func TestE12PaperQueryValid(t *testing.T) {
	tab := E12PaperQuery(0.25)
	row := tab.Rows()[0]
	if row[4] != "true" {
		t.Errorf("skyline invariant violated: %v", row)
	}
	n, _ := strconv.Atoi(row[1])
	if n <= 0 {
		t.Errorf("paper query returned no results: %v", row)
	}
}

func TestSeriesRendering(t *testing.T) {
	s := NewSeries("E2: routing hops", "peers", "avg hops", "latency")
	s.Add(64, 3.17, 250*time.Millisecond)
	s.Add(1024, 5.02, 410*time.Millisecond)
	out := s.String()
	for _, frag := range []string{"E2: routing hops", "peers", "avg hops", "3.17", "1024", "250ms"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
	if len(s.Rows()) != 2 {
		t.Errorf("rows = %d", len(s.Rows()))
	}
}
