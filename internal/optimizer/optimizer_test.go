package optimizer_test

import (
	"testing"

	"unistore/internal/cost"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/simnet"
	"unistore/internal/vql"
)

func compile(t *testing.T, src string) *physical.Plan {
	t.Helper()
	q, err := vql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := physical.CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOptimizePrefersExactLookups(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(256), optimizer.DefaultOptions())
	p := compile(t, `SELECT ?n WHERE {(?p,'name',?n) (?p,'email','x@y')}`)
	o.Optimize(p)
	if p.Steps[0].Strat != physical.StratAVLookup {
		t.Errorf("exact A#v lookup must lead: %s", p)
	}
	if len(p.Steps[1].JoinOn) != 1 || p.Steps[1].JoinOn[0] != "p" {
		t.Errorf("join vars recomputed wrong: %+v", p.Steps[1])
	}
}

func TestOptimizeKeepsFiltersApplicable(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.DefaultOptions())
	p := compile(t, `SELECT ?n WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a > 30 FILTER length(?n) > 3}`)
	o.Optimize(p)
	// Every filter must sit on a step whose prior vars cover it.
	bound := map[string]bool{}
	for _, st := range p.Steps {
		for _, v := range st.Pat.Vars() {
			bound[v] = true
		}
		for _, f := range st.Filters {
			covered := true
			for _, v := range exprVars(f) {
				if !bound[v] {
					covered = false
				}
			}
			if !covered {
				t.Errorf("filter %s attached before its vars bind: %s", f, p)
			}
		}
	}
	total := 0
	for _, st := range p.Steps {
		total += len(st.Filters)
	}
	if total != 2 {
		t.Errorf("filters lost or duplicated: %d", total)
	}
}

func exprVars(e vql.Expr) []string {
	var out []string
	var walkOp func(o vql.Operand)
	walkOp = func(o vql.Operand) {
		switch x := o.(type) {
		case vql.VarOperand:
			out = append(out, x.Name)
		case vql.FuncOperand:
			for _, a := range x.Args {
				walkOp(a)
			}
		}
	}
	switch x := e.(type) {
	case vql.Cmp:
		walkOp(x.L)
		walkOp(x.R)
	case vql.BoolFunc:
		for _, a := range x.Args {
			walkOp(a)
		}
	}
	return out
}

func TestModeShipMarksSteps(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.Options{Mode: optimizer.ModeShip})
	p := compile(t, `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`)
	o.Optimize(p)
	if !p.Steps[1].Ship {
		t.Errorf("ModeShip must mark later steps: %s", p)
	}
	if p.Steps[0].Ship {
		t.Error("first step never ships")
	}
}

func TestModeFetchNeverShips(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.Options{Mode: optimizer.ModeFetch})
	p := compile(t, `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`)
	o.Optimize(p)
	for _, st := range p.Steps {
		if st.Ship {
			t.Errorf("ModeFetch shipped: %s", p)
		}
	}
}

func TestForceStrategyOverrides(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.Options{
		Mode: optimizer.ModeFetch, ForceStrategy: physical.StratBroadcast})
	p := compile(t, `SELECT ?n WHERE {(?p,'name',?n)}`)
	o.Optimize(p)
	if p.Steps[0].Strat != physical.StratBroadcast {
		t.Errorf("force ignored: %s", p)
	}
}

func TestQGramChosenWhenCheaper(t *testing.T) {
	stats := cost.DefaultStats(512)
	stats.TriplesPerAttr["series"] = 5000
	stats.TotalTriples = 10000
	o := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, UseQGram: true})
	p := compile(t, `SELECT ?sr WHERE {(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}`)
	o.Optimize(p)
	if p.Steps[0].Strat != physical.StratQGram {
		t.Errorf("q-gram path not chosen on a large network: %s", p)
	}
	// Without the index enabled, the range scan remains.
	o2 := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, UseQGram: false})
	p2 := compile(t, `SELECT ?sr WHERE {(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}`)
	o2.Optimize(p2)
	if p2.Steps[0].Strat == physical.StratQGram {
		t.Error("q-gram path chosen despite UseQGram=false")
	}
}

func TestDisabledOptimizerPreservesCompiledOrder(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.Options{Disabled: true})
	p := compile(t, `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`)
	first := p.Steps[0].Pat.String()
	o.Optimize(p)
	if p.Steps[0].Pat.String() != first {
		t.Error("disabled optimizer reordered steps")
	}
}

func TestSimsAttachOnce(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.DefaultOptions())
	p := compile(t, `SELECT ?sr WHERE {(?c,'series',?sr) (?c,'confname',?cn) FILTER edist(?sr,'ICDE')<3}`)
	o.Optimize(p)
	total := 0
	for _, st := range p.Steps {
		total += len(st.Sims)
	}
	if total != 1 {
		t.Errorf("similarity predicate attached %d times: %s", total, p)
	}
}

func TestPrefixPushdown(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.DefaultOptions())
	p := compile(t, `SELECT ?t WHERE {(?p,'title',?t) FILTER startswith(?t,'Paper 001')}`)
	o.Optimize(p)
	if p.Steps[0].ValuePrefix != "Paper 001" {
		t.Errorf("prefix not pushed down: %+v", p.Steps[0])
	}
	// The filter stays attached for re-checking.
	if len(p.Steps[0].Filters) != 1 {
		t.Errorf("filter lost: %+v", p.Steps[0])
	}
	// Not applicable when the predicate targets another variable.
	p2 := compile(t, `SELECT ?t WHERE {(?p,'title',?t) (?p,'name',?n) FILTER startswith(?n,'x')}`)
	o.Optimize(p2)
	for _, st := range p2.Steps {
		if st.Pat.A.Val.Str == "title" && st.ValuePrefix != "" {
			t.Errorf("prefix wrongly pushed to title scan: %+v", st)
		}
	}
}

// TestAggStrategyChoice: the cost model must push aggregation down
// when groups are much smaller than rows, keep the centralized stream
// for a small rank-fed group limit, and honor forced choices.
func TestAggStrategyChoice(t *testing.T) {
	stats := cost.DefaultStats(64)
	stats.TriplesPerAttr["group"] = 5000
	stats.TotalTriples = 20000
	stats.PageSize = 8
	grouped := `SELECT ?g, count(*) AS ?n WHERE {(?p,'group',?g)} GROUP BY ?g`
	ranked := `SELECT ?g, count(*) AS ?n WHERE {(?p,'group',?g)} GROUP BY ?g ORDER BY ?g LIMIT 2`
	joined := `SELECT ?g, count(*) AS ?n WHERE {(?p,'group',?g) (?p,'age',?a)} GROUP BY ?g`

	o := optimizer.New(stats, optimizer.DefaultOptions())
	if p := o.Optimize(compile(t, grouped)); !p.Tail.AggPushdown {
		t.Error("auto: exhaustive group-by must push down")
	}
	if p := o.Optimize(compile(t, ranked)); p.Tail.AggPushdown {
		t.Error("auto: small rank-fed group limit must stay centralized")
	}
	if p := o.Optimize(compile(t, joined)); p.Tail.AggPushdown {
		t.Error("a join below the aggregation cannot push down")
	}
	forcedC := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, Agg: optimizer.AggCentralized})
	if p := forcedC.Optimize(compile(t, grouped)); p.Tail.AggPushdown {
		t.Error("forced centralized ignored")
	}
	// A group-key ordering the scan CANNOT stream (order var is the
	// subject, scan key order is the value) must not earn the
	// centralized limit discount — pushdown still wins.
	unstreamable := `SELECT ?p, count(*) AS ?n WHERE {(?p,'score',?s)} GROUP BY ?p ORDER BY ?p LIMIT 2`
	if p := o.Optimize(compile(t, unstreamable)); !p.Tail.AggPushdown {
		t.Error("auto: unstreamable group ordering must not discount the centralized scan")
	}
	forcedP := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, Agg: optimizer.AggPushdown})
	if p := forcedP.Optimize(compile(t, grouped)); !p.Tail.AggPushdown {
		t.Error("forced pushdown ignored")
	}
	if p := forcedP.Optimize(compile(t, joined)); p.Tail.AggPushdown {
		t.Error("forced pushdown must still respect feasibility")
	}
}

// lookupStats mirrors the 16-partition, page-16 topology of a
// 500-person workload.Generate dataset (~7000 triples).
func lookupStats() *cost.Stats {
	s := cost.DefaultStats(16)
	s.TotalTriples = 7000
	s.PageSize = 16
	for _, a := range []string{"name", "age", "email"} {
		s.TriplesPerAttr[a] = 500
	}
	return s
}

// joinSrc is a bound-subject star: one exact A#v lookup binds ?p, two
// more patterns on ?p follow.
const joinSrc = `SELECT ?n,?a WHERE {(?p,'email','p42@example.org') (?p,'name',?n) (?p,'age',?a)}`

// TestSubjectProbeChosenForSmallCard: a handful of bound subjects make
// the DHT index join on the OID index cheaper than scanning the name
// and age regions; both patterns fold into one probe step, which has
// no single region and therefore never ships.
func TestSubjectProbeChosenForSmallCard(t *testing.T) {
	o := optimizer.New(lookupStats(), optimizer.DefaultOptions())
	p := o.Optimize(compile(t, joinSrc))
	want := `av-lookup(?p,'email','p42@example.org') → oid-lookup(?p,'name',?n)+(?p,'age',?a) join[p]`
	if got := p.String(); got != want {
		t.Errorf("plan\n got %s\nwant %s", got, want)
	}
	// Forced migration still cannot place a variable-subject probe.
	ship := optimizer.New(lookupStats(), optimizer.Options{Mode: optimizer.ModeShip})
	for _, st := range ship.Optimize(compile(t, joinSrc)).Steps {
		if st.Ship {
			t.Errorf("ModeShip marked a step with no region: %s", st)
		}
	}
}

// TestGroundSubjectStarFuses: patterns on one ground OID resolve from
// one OID lookup.
func TestGroundSubjectStarFuses(t *testing.T) {
	o := optimizer.New(lookupStats(), optimizer.DefaultOptions())
	p := o.Optimize(compile(t, `SELECT ?n,?a WHERE {('person-00042','name',?n) ('person-00042','age',?a)}`))
	want := `oid-lookup('person-00042','name',?n)+('person-00042','age',?a)`
	if got := p.String(); got != want {
		t.Errorf("plan\n got %s\nwant %s", got, want)
	}
}

// TestRegionScanKeptForManyBindings: 2000 bound subjects on 64
// partitions at the hit rate a cold analytic cluster reports (0) cost
// thousands of probe messages, far above one paged region scan.
func TestRegionScanKeptForManyBindings(t *testing.T) {
	s := cost.DefaultStats(64)
	s.TotalTriples = 29000
	s.PageSize = 16
	s.TriplesPerAttr["name"] = 2000
	s.TriplesPerAttr["age"] = 2000
	o := optimizer.New(s, optimizer.DefaultOptions())
	p := o.Optimize(compile(t, `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`))
	for _, st := range p.Steps {
		if st.Strat != physical.StratAVRange {
			t.Errorf("2000 bindings must keep the region scans: %s", p)
		}
	}
}

// estimatePlan prices hand-built steps through EstimatePlan.
func estimatePlan(o *optimizer.Optimizer, steps ...physical.Step) float64 {
	return o.EstimatePlan(&physical.Plan{Steps: steps}).Messages
}

func pat(t *testing.T, src string) vql.Pattern {
	t.Helper()
	return compile(t, `SELECT * WHERE {`+src+`}`).Steps[0].Pat
}

// TestEstimateBoundSteps pins how bound variables price a step: a
// bound value turns an A#v range into probes (unchanged), a bound
// subject alone leaves it a region scan (the executor scans), and a
// fused OID step costs one lookup per subject, like a single pattern.
func TestEstimateBoundSteps(t *testing.T) {
	s := lookupStats()
	o := optimizer.New(s, optimizer.DefaultOptions())
	email := physical.Step{Pat: pat(t, `(?p,'email','x')`), Strat: physical.StratAVLookup}
	lead := s.Lookup(500 * cost.EqSelectivity)
	card := lead.Results

	byValue := physical.Step{Pat: pat(t, `(?q,'knows',?p)`), Strat: physical.StratAVRange, JoinOn: []string{"p"}}
	if got, want := estimatePlan(o, email, byValue), lead.Plus(s.MultiLookup(int(card), card)).Messages; got != want {
		t.Errorf("value-bound A#v probes: %.2f msgs, want %.2f", got, want)
	}

	bySubject := physical.Step{Pat: pat(t, `(?p,'name',?n)`), Strat: physical.StratAVRange, JoinOn: []string{"p"}}
	scan := s.Range(500/7000.0, 500)
	if got, want := estimatePlan(o, email, bySubject), lead.Plus(scan).Messages; got != want {
		t.Errorf("subject-bound A#v range: %.2f msgs, want the region scan's %.2f", got, want)
	}

	probe := physical.Step{Pat: pat(t, `(?p,'name',?n)`), Strat: physical.StratOIDLookup, JoinOn: []string{"p"}}
	fused := probe
	fused.Fused = []vql.Pattern{pat(t, `(?p,'age',?a)`), pat(t, `(?p,'phone',?f)`)}
	single := estimatePlan(o, email, probe)
	if got := estimatePlan(o, email, fused); got != single {
		t.Errorf("fused OID step: %.2f msgs, want one lookup per subject (%.2f)", got, single)
	}
	if want := lead.Plus(s.MultiLookup(int(card), card)).Messages; single != want {
		t.Errorf("subject probes: %.2f msgs, want %.2f", single, want)
	}
}

// TestRechooseKeepsBoundVariables: a host re-optimizing a migrated
// remainder knows the variables its bindings carry, so a subject-bound
// step keeps its OID probe and its join variables.
func TestRechooseKeepsBoundVariables(t *testing.T) {
	o := optimizer.New(lookupStats(), optimizer.DefaultOptions())
	// The remainder a plan ships once ?p is bound upstream: a pinned
	// ground-subject step, then two patterns on the carried ?p.
	rem := []physical.Step{
		{Pat: pat(t, `('person-00007','email',?e)`), Strat: physical.StratOIDLookup},
		{Pat: pat(t, `(?p,'name',?n)`), Strat: physical.StratOIDLookup, JoinOn: []string{"p"}},
		{Pat: pat(t, `(?p,'age',?a)`), Strat: physical.StratOIDLookup, JoinOn: []string{"p"}},
	}
	peer := pgrid.NewPeer(simnet.New(simnet.Config{Seed: 1}), pgrid.DefaultConfig())
	out := o.Rechoose(rem, physical.Tail{}, 1, peer)
	want := `oid-lookup(?p,'name',?n)+(?p,'age',?a) join[p]`
	if len(out) != 2 || out[1].String() != want {
		t.Errorf("remainder re-planned as %v, want its second step %s", out, want)
	}
}
