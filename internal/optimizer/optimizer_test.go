package optimizer_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"unistore/internal/cost"
	"unistore/internal/keys"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/simnet"
	"unistore/internal/triple"
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
	want := []keys.Range{triple.AVStringPrefixRange("title", "Paper 001")}
	if !reflect.DeepEqual(p.Steps[0].Narrow, want) {
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
		if st.Pat.A.Val.Str == "title" && len(st.Narrow) > 0 {
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

// TestRegionScanKeptForManyBindings: hundreds of bound subjects on 64
// partitions (2000 persons, ~600 once the age filter narrows the lead
// scan) at the hit rate a cold analytic cluster reports (0) cost
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

// analyticStats mirrors the 64-partition, page-16 topology of a
// 2000-person workload.Generate dataset (~29000 triples).
func analyticStats() *cost.Stats {
	s := cost.DefaultStats(64)
	s.TotalTriples = 29000
	s.PageSize = 16
	for _, a := range []string{"name", "age", "title", "published_in"} {
		s.TriplesPerAttr[a] = 2000
	}
	return s
}

const rangeJoinSrc = `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`

// TestRangePushdownOrdersFilteredStepFirst: the comparison narrows the
// age scan to the numbers below 30 plus the string sub-region, which
// prices it below the whole name region, so it leads; its ~600 rows
// then make the name scan a semi-join.
func TestRangePushdownOrdersFilteredStepFirst(t *testing.T) {
	o := optimizer.New(analyticStats(), optimizer.DefaultOptions())
	p := o.Optimize(compile(t, rangeJoinSrc))
	want := `av-range(?p,'age',?a) filter[?a<30] → av-range(?p,'name',?n) join[p] semi`
	if got := p.String(); got != want {
		t.Fatalf("plan\n got %s\nwant %s", got, want)
	}
	nums, _ := triple.AVNumberRange("age", math.Inf(-1), 30, false, true)
	if got, want := p.Steps[0].Narrow, []keys.Range{nums, triple.AVKindRange("age", triple.KindString)}; !reflect.DeepEqual(got, want) {
		t.Errorf("age scan narrowed to %v, want %v", got, want)
	}
	if p.Steps[1].Semi != 2000 || len(p.Steps[1].Narrow) != 0 {
		t.Errorf("name step: %+v, want a plain-region semi-join capped at the attribute's 2000 triples", p.Steps[1])
	}
}

// TestRangePushdownIntervals: every pushable form, in either operand
// order, narrows the scan to the same intervals, priced with
// RangeSelectivity per bound or EqSelectivity.
func TestRangePushdownIntervals(t *testing.T) {
	s := analyticStats()
	o := optimizer.New(s, optimizer.DefaultOptions())
	scan := func(sel float64) float64 {
		return s.Range(2000*sel/29000, 2000*sel).Messages
	}
	nums := func(lo, hi float64, loOpen, hiOpen bool) keys.Range {
		r, ok := triple.AVNumberRange("age", lo, hi, loOpen, hiOpen)
		if !ok {
			t.Fatalf("empty interval [%v,%v]", lo, hi)
		}
		return r
	}
	strs := triple.AVKindRange("age", triple.KindString)
	tail := func(lo float64, open bool) keys.Range { // numbers from lo, then the strings
		return keys.Range{Lo: nums(lo, math.Inf(1), open, false).Lo, Hi: strs.Hi, HiOpen: true}
	}
	inf := math.Inf(1)
	r, rr := cost.RangeSelectivity, cost.RangeSelectivity*cost.RangeSelectivity
	for _, tc := range []struct {
		filter string
		want   []keys.Range
		sel    float64
	}{
		{`FILTER ?a < 30`, []keys.Range{nums(-inf, 30, false, true), strs}, r},
		{`FILTER 30 > ?a`, []keys.Range{nums(-inf, 30, false, true), strs}, r},
		{`FILTER ?a <= 30`, []keys.Range{nums(-inf, 30, false, false), strs}, r},
		{`FILTER 30 >= ?a`, []keys.Range{nums(-inf, 30, false, false), strs}, r},
		{`FILTER ?a > 30`, []keys.Range{tail(30, true)}, r},
		{`FILTER 30 < ?a`, []keys.Range{tail(30, true)}, r},
		{`FILTER ?a >= 30`, []keys.Range{tail(30, false)}, r},
		{`FILTER ?a = 30`, []keys.Range{nums(30, 30, false, false), strs}, cost.EqSelectivity},
		{`FILTER 30 = ?a`, []keys.Range{nums(30, 30, false, false), strs}, cost.EqSelectivity},
		{`FILTER ?a > 20 AND ?a < 30`, []keys.Range{nums(20, 30, true, true), strs}, rr},
		{`FILTER ?a > 20 FILTER ?a < 30`, []keys.Range{nums(20, 30, true, true), strs}, rr},
		{`FILTER ?a > 20 AND ?a > 25 AND length(?a) > 1`, []keys.Range{tail(25, true)}, r},
		{`FILTER ?a > 30 AND ?a < 20`, []keys.Range{strs}, rr},
		{`FILTER startswith(?a,'x')`, []keys.Range{triple.AVStringPrefixRange("age", "x")}, r},
		{`FILTER startswith(?a,'2')`, []keys.Range{triple.AVKindRange("age", triple.KindNumber), triple.AVStringPrefixRange("age", "2")}, r},
	} {
		p := o.Optimize(compile(t, `SELECT ?a WHERE {(?p,'age',?a) `+tc.filter+`}`))
		if got := p.Steps[0].Narrow; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: narrowed to %v, want %v", tc.filter, got, tc.want)
		}
		if got, want := o.EstimatePlan(p).Messages, scan(tc.sel); got != want {
			t.Errorf("%s: priced %.2f msgs, want %.2f (selectivity %v)", tc.filter, got, want, tc.sel)
		}
	}
	// Nothing pushes through OR, NOT, a string literal or another
	// variable.
	for _, f := range []string{`FILTER ?a < 30 OR ?a > 60`, `FILTER NOT (?a < 30)`, `FILTER ?a < '30'`, `FILTER ?a < ?b`} {
		p := o.Optimize(compile(t, `SELECT ?a WHERE {(?p,'age',?a) (?p,'bound',?b) `+f+`}`))
		for _, st := range p.Steps {
			if len(st.Narrow) > 0 {
				t.Errorf("%s: narrowed %s", f, st)
			}
		}
	}
}

// TestSemiJoinChoice: a subject-bound A#v range becomes a semi-join
// scan only when the upstream is well below the attribute's count and
// spans several probe batches; equal cardinalities keep the plain scan.
func TestSemiJoinChoice(t *testing.T) {
	o := optimizer.New(analyticStats(), optimizer.DefaultOptions())
	for _, tc := range []struct {
		src, want string
	}{
		// scanjoin: 2000 titles against 2000 venues.
		{`SELECT ?t,?c WHERE {(?u,'title',?t) (?u,'published_in',?c)}`,
			`av-range(?u,'title',?t) → av-range(?u,'published_in',?c) join[u]`},
		// ~20 subjects of one age: above a page, far below 2000 (and
		// few enough to ship the plan to the name region).
		{`SELECT ?n WHERE {(?p,'age',?a) (?p,'name',?n) FILTER ?a = 30}`,
			`av-range(?p,'age',?a) filter[?a=30] → av-range(?p,'name',?n) join[p] semi ship`},
	} {
		if got := o.Optimize(compile(t, tc.src)).String(); got != tc.want {
			t.Errorf("plan\n got %s\nwant %s", got, tc.want)
		}
	}
	// One page of bound subjects is one probe batch: the fused OID
	// probe keeps winning (the lookup-star plan is unchanged).
	lo := optimizer.New(lookupStats(), optimizer.DefaultOptions())
	if p := lo.Optimize(compile(t, joinSrc)); strings.Contains(p.String(), "semi") {
		t.Errorf("one page of subjects planned a semi-join: %s", p)
	}
}

// TestEstimateSemiStep: EstimatePlan prices a semi-join step as a scan
// of the region that ships at most one entry per upstream subject.
func TestEstimateSemiStep(t *testing.T) {
	s := analyticStats()
	o := optimizer.New(s, optimizer.DefaultOptions())
	p := o.Optimize(compile(t, rangeJoinSrc))
	age := s.Range(2000*cost.RangeSelectivity/29000, 2000*cost.RangeSelectivity)
	name := s.Range(2000.0/29000, age.Results)
	if got, want := o.EstimatePlan(p).Messages, age.Plus(name).Messages; got != want {
		t.Errorf("range join priced %.2f msgs, want %.2f", got, want)
	}
	plain := p.Steps[1]
	plain.Semi = 0
	if o.EstimatePlan(&physical.Plan{Steps: []physical.Step{p.Steps[0], plain}}).Messages <= o.EstimatePlan(p).Messages {
		t.Error("the plain scan must price above the semi-join")
	}
}

// TestRechooseKeepsSemiJoin: a host re-planning a migrated range join
// with the upstream's ~600 bindings chooses the semi-join again.
func TestRechooseKeepsSemiJoin(t *testing.T) {
	o := optimizer.New(analyticStats(), optimizer.DefaultOptions())
	p := o.Optimize(compile(t, rangeJoinSrc))
	rem := append([]physical.Step(nil), p.Steps...)
	rem[1].Semi = 0
	peer := pgrid.NewPeer(simnet.New(simnet.Config{Seed: 1}), pgrid.DefaultConfig())
	out := o.Rechoose(rem, p.Tail, 600, peer)
	if len(out) != 2 || out[1].Semi == 0 || !reflect.DeepEqual(out[0].Narrow, p.Steps[0].Narrow) {
		t.Errorf("remainder re-planned as %v", out)
	}
}
