// Package optimizer implements UniStore's cost-based plan selection:
// choosing among the physical implementations of each logical operator
// (lookup vs. range vs. broadcast vs. q-gram access paths), ordering
// the join steps by estimated cost, and deciding where mutant plans
// migrate. Because the same optimizer runs again at every peer hosting
// a migrated plan — with that peer's own statistics — query processing
// is adaptive, as §2 of the paper describes.
//
// Costs are startup-vs-total aware: under a streamable LIMIT/top-k
// tail the final operator is priced at what the early-terminating
// streaming executor will actually pay (cost.Estimate.ScaledToLimit),
// steering plans toward access paths that produce their first tuples
// cheaply instead of ones that must materialize before emitting.
package optimizer

import (
	"math"
	"slices"

	"unistore/internal/cost"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/vql"
)

// Mode controls mutant plan migration.
type Mode int

// Modes.
const (
	// ModeAuto ships the plan when intermediate results are small
	// enough that moving the plan beats moving the data.
	ModeAuto Mode = iota
	// ModeFetch always pulls data to the coordinating peer.
	ModeFetch
	// ModeShip always migrates the plan to the next step's region.
	ModeShip
)

// AggChoice selects the aggregation execution strategy.
type AggChoice int

// Aggregation strategies.
const (
	// AggAuto prices pushdown (groups shipped) against centralized
	// (rows shipped) and picks the cheaper.
	AggAuto AggChoice = iota
	// AggPushdown forces peer-side partial aggregation wherever the
	// plan shape allows it.
	AggPushdown
	// AggCentralized forces the centralized fallback — rows stream to
	// the coordinator and aggregate there (the benchmarks' baseline).
	AggCentralized
)

// Options tune the optimizer; the demo's "influencing the integrated
// optimizer" (§4) maps to these knobs.
type Options struct {
	Mode Mode
	// Agg selects pushdown vs centralized aggregation (default: cost
	// decides).
	Agg AggChoice
	// UseQGram enables the q-gram access path for similarity
	// predicates (requires the gram index to be populated).
	UseQGram bool
	// Disabled turns cost-based reordering off: the plan executes in
	// compiled order with shape-default strategies.
	Disabled bool
	// ForceStrategy overrides the strategy of every step it can apply
	// to (experiment plan variants). StratAuto means no override.
	ForceStrategy physical.AccessStrategy
	// ShipThreshold is the binding count below which ModeAuto ships.
	ShipThreshold int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Mode: ModeAuto, UseQGram: true, ShipThreshold: 64}
}

// Optimizer holds statistics and options; it implements
// physical.Reoptimizer.
type Optimizer struct {
	Stats *cost.Stats
	Opt   Options
}

// New creates an optimizer over a statistics snapshot.
func New(stats *cost.Stats, opt Options) *Optimizer {
	if opt.ShipThreshold == 0 {
		opt.ShipThreshold = 64
	}
	return &Optimizer{Stats: stats, Opt: opt}
}

// Optimize rewrites a compiled plan in place: strategy selection, join
// ordering and ship decisions. It returns the plan for chaining.
// When the tail is a streamable LIMIT/top-k, operator costs are
// repriced with their startup-vs-total split (cost.ScaledToLimit), so
// plans whose expensive operators can terminate early — range scans
// over access paths that must materialize before producing anything —
// win ties against startup-heavy alternatives like the q-gram path.
func (o *Optimizer) Optimize(p *physical.Plan) *physical.Plan {
	p.Steps = o.order(p.Steps, nil, 0, streamableLimit(p.Tail))
	o.chooseAggStrategy(p)
	return p
}

// EstimatePlan prices an already-optimized plan without reordering it:
// the sequential composition of each step's estimate, with the final
// step repriced for early termination on the tail's streamable limit.
// It is the observability-side readout of the same model Optimize
// chooses by — slow-query logs print it next to a query's observed
// messages and latency, so model drift is visible where it matters.
func (o *Optimizer) EstimatePlan(p *physical.Plan) cost.Estimate {
	limit := streamableLimit(p.Tail)
	var total cost.Estimate
	card := 1.0
	bound := map[string]bool{}
	for i, st := range p.Steps {
		stepLimit := 0
		if i == len(p.Steps)-1 {
			stepLimit = limit
		}
		est := o.estimate(st.Strat, st, card, bound).ScaledToLimit(stepLimit)
		if i == 0 {
			total = est
		} else {
			total = total.Plus(est)
		}
		card = math.Max(est.Results, 1)
		for _, v := range st.Vars() {
			bound[v] = true
		}
	}
	return total
}

// chooseAggStrategy decides pushdown vs centralized for an aggregating
// tail by pricing groups-shipped against rows-shipped. Pushdown ships
// at most min(groups, partition rows) states per partition; the
// centralized row stream pays for every row but can terminate early
// when the ordering key is the group variable the scan streams in key
// order (the rank-fed group-by), which is the one shape where rows can
// beat states. Forced choices short-circuit the pricing.
func (o *Optimizer) chooseAggStrategy(p *physical.Plan) {
	if !p.Tail.HasAgg() {
		return
	}
	switch o.Opt.Agg {
	case AggPushdown:
		p.Tail.AggPushdown = physical.AggPushdownable(p)
		return
	case AggCentralized:
		p.Tail.AggPushdown = false
		return
	}
	if o.Opt.Disabled || !physical.AggPushdownable(p) {
		return
	}
	st := p.Steps[0]
	est := o.estimate(st.Strat, st, 1, nil)
	rows := math.Max(est.Results, 1)
	groups := math.Max(rows*cost.GroupShare, 1)
	attr := ""
	if !st.Pat.A.IsVar() {
		attr = st.Pat.A.Val.Str
	}
	frac := float64(o.Stats.AttrCount(attr)) / math.Max(float64(o.Stats.TotalTriples), 1)
	if st.Strat == physical.StratBroadcast {
		frac = 1
	}
	push := o.Stats.AggRange(frac, rows, groups)
	central := est
	if physical.AggRankStreamable(p) {
		// Rank-fed group-by: the centralized stream stops after the
		// rows of the first Limit groups. The gate mirrors the
		// executor's (the scan must emit the ordering variable in key
		// order), so the discount never credits a plan that would run
		// blocking.
		kRows := int(math.Ceil(rows * float64(p.Tail.Limit) / groups))
		central = central.ScaledToLimit(kRows)
	}
	p.Tail.AggPushdown = push.Messages <= central.Messages
}

// streamableLimit returns the limit the streaming executor can
// terminate on early, or 0 when the tail blocks (skyline, multi-key
// orderings) and every operator must run to completion. An aggregating
// tail's limit counts GROUPS, not rows, so per-step row costs must not
// scale by it — chooseAggStrategy prices the rank-fed group-by case
// itself.
func streamableLimit(t physical.Tail) int {
	if t.Limit <= 0 || len(t.Skyline) > 0 || len(t.OrderBy) > 1 || t.HasAgg() {
		return 0
	}
	return t.Limit
}

// Rechoose implements physical.Reoptimizer: a peer hosting a migrated
// plan re-optimizes the remaining steps with its local view. The
// partition estimate derives from the peer's own trie depth — a purely
// local approximation of network size.
func (o *Optimizer) Rechoose(steps []physical.Step, tail physical.Tail, bindingCount int, peer *pgrid.Peer) []physical.Step {
	if o.Opt.Disabled || len(steps) <= 1 {
		return steps
	}
	local := *o.Stats
	if d := peer.Path().Len(); d > 0 {
		local.Partitions = 1 << uint(min(d, 20))
	}
	lo := &Optimizer{Stats: &local, Opt: o.Opt}
	// The first step is pinned: we are already at (or heading to) its
	// region.
	rest := lo.order(steps[1:], remainderBound(steps), float64(bindingCount), streamableLimit(tail))
	out := make([]physical.Step, 0, len(steps))
	out = append(out, steps[0])
	out = append(out, rest...)
	return out
}

// remainderBound returns the variables bound once a migrated plan's
// pinned first step has run: that step's own, plus those the migrated
// bindings carry. A carried variable shows up in the JoinOn of the
// first remaining step that mentions it, so a JoinOn variable counts
// unless an earlier remaining step binds it — that one may be
// reordered later, and a variable it binds is no probe key before.
func remainderBound(steps []physical.Step) map[string]bool {
	bound := map[string]bool{}
	for _, v := range steps[0].Vars() {
		bound[v] = true
	}
	later := map[string]bool{}
	for _, st := range steps[1:] {
		for _, v := range st.JoinOn {
			if !later[v] {
				bound[v] = true
			}
		}
		for _, v := range st.Vars() {
			later[v] = true
		}
	}
	return bound
}

// order greedily sequences steps by estimated cost, recomputing join
// variables, filter attachment and ship flags for the new order, and
// finally fuses same-subject OID lookups (physical.FuseSubjects).
// seed holds variables already bound before the first step (a hosted
// remainder's); prevCard seeds the cardinality estimate (bindings
// already present); limit > 0 reprices the final step for early
// termination.
func (o *Optimizer) order(steps []physical.Step, seed map[string]bool, prevCard float64, limit int) []physical.Step {
	if len(steps) == 0 {
		return steps
	}
	if o.Opt.Disabled {
		// Strategies only (shape defaults + forced override), original
		// order, no shipping.
		out := make([]physical.Step, len(steps))
		copy(out, steps)
		for i := range out {
			out[i].Strat, _ = o.chooseStrategy(out[i], nil, 0, 0)
			out[i].Ship = false
		}
		return out
	}
	// Pool all predicates; they re-attach as variables become bound.
	// Fused steps (a hosted remainder's) unfold into their patterns and
	// fuse again after ordering.
	var pool []vql.Pattern
	var allFilters []vql.Expr
	var allSims []physical.SimSpec
	for _, st := range steps {
		pool = append(pool, st.Patterns()...)
		allFilters = append(allFilters, st.Filters...)
		allSims = append(allSims, st.Sims...)
	}
	bound := map[string]bool{}
	for v := range seed {
		bound[v] = true
	}
	usedFilters := make([]bool, len(allFilters))
	usedSims := make([]bool, len(allSims))
	remaining := make([]int, len(pool))
	for i := range remaining {
		remaining[i] = i
	}
	var out []physical.Step
	card := math.Max(prevCard, 1)
	for len(remaining) > 0 {
		// Only the final operator of a streamable-limit plan gets the
		// early-termination discount: upstream steps feed joins and run
		// to completion regardless.
		stepLimit := 0
		if len(remaining) == 1 {
			stepLimit = limit
		}
		bestIdx, bestCost := -1, math.Inf(1)
		var bestEst cost.Estimate
		for _, ri := range remaining {
			// Price the candidate with the filters it would cover: a
			// pushed-down value predicate narrows its scan.
			st := physical.Step{Pat: pool[ri], Sims: simsFor(pool[ri], allSims, usedSims)}
			st.Filters, _ = filtersFor(pool[ri], allFilters, usedFilters, bound)
			var est cost.Estimate
			if rides(out, st) {
				// The previous step's OID answers already hold this
				// pattern's triples: it fuses for free.
				st.Strat = physical.StratOIDLookup
				est = cost.Estimate{Results: card}
			} else {
				st.Strat, st.Semi = o.chooseStrategy(st, bound, card, stepLimit)
				st = narrowed(st)
				est = o.estimate(st.Strat, st, card, bound).ScaledToLimit(stepLimit)
			}
			// Prefer connected, cheap, selective steps.
			c := est.Messages + est.Results*0.1
			if !connected(pool[ri], bound) && len(bound) > 0 {
				c *= 100 // cartesian products last
			}
			if c < bestCost {
				bestCost, bestIdx, bestEst = c, ri, est
			}
		}
		// Build the chosen step.
		pat := pool[bestIdx]
		st := physical.Step{Pat: pat}
		for _, v := range pat.Vars() {
			if bound[v] {
				st.JoinOn = append(st.JoinOn, v)
			}
		}
		st.Sims = takeSims(pat, allSims, usedSims, bound)
		// Attach every filter whose variables this step binds last.
		var taken []int
		st.Filters, taken = filtersFor(pat, allFilters, usedFilters, bound)
		for _, fi := range taken {
			usedFilters[fi] = true
		}
		if rides(out, st) {
			st.Strat = physical.StratOIDLookup
		} else {
			st.Strat, st.Semi = o.chooseStrategy(st, bound, card, stepLimit)
			st = narrowed(st)
		}
		for _, v := range pat.Vars() {
			bound[v] = true
		}
		// Ship decision: only a step with a region to migrate to can
		// ship; marking any other would make its stage a barrier for
		// nothing.
		_, placed := physical.ShipTarget(st)
		switch o.Opt.Mode {
		case ModeShip:
			st.Ship = len(out) > 0 && placed
		case ModeAuto:
			st.Ship = len(out) > 0 && placed && card <= float64(o.Opt.ShipThreshold)
		}
		out = append(out, st)
		card = math.Max(bestEst.Results, 1)
		// Drop from remaining.
		for i, ri := range remaining {
			if ri == bestIdx {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	// Any unattached similarity predicates become post-filters of the
	// last step (their variables must be bound by now or Build would
	// have failed).
	last := &out[len(out)-1]
	for si, s := range allSims {
		if !usedSims[si] {
			last.Sims = append(last.Sims, s)
			usedSims[si] = true
		}
	}
	for fi, f := range allFilters {
		if !usedFilters[fi] {
			last.Filters = append(last.Filters, f)
			usedFilters[fi] = true
		}
	}
	return physical.FuseSubjects(out)
}

// rides reports whether st can resolve as an OID lookup fused into the
// last step planned so far (physical.FuseSubjects): that step looks up
// the same subject, and its answers carry every triple of it.
func rides(out []physical.Step, st physical.Step) bool {
	if len(out) == 0 {
		return false
	}
	st.Strat = physical.StratOIDLookup
	return physical.Fusable(out[len(out)-1], st)
}

// connected reports whether the pattern shares a variable with the
// bound set.
func connected(pat vql.Pattern, bound map[string]bool) bool {
	for _, v := range pat.Vars() {
		if bound[v] {
			return true
		}
	}
	return false
}

// simsFor previews the sims applicable to a pattern (for costing).
func simsFor(pat vql.Pattern, sims []physical.SimSpec, used []bool) []physical.SimSpec {
	var out []physical.SimSpec
	if !pat.V.IsVar() {
		return nil
	}
	for i, s := range sims {
		if !used[i] && s.Var == pat.V.Var {
			out = append(out, s)
		}
	}
	return out
}

// takeSims consumes sims that can attach to this step: predicates on
// the pattern's value variable (usable by the q-gram path) or whose
// variables are all bound after this step.
func takeSims(pat vql.Pattern, sims []physical.SimSpec, used []bool, bound map[string]bool) []physical.SimSpec {
	var out []physical.SimSpec
	willBind := map[string]bool{}
	for v := range bound {
		willBind[v] = true
	}
	for _, v := range pat.Vars() {
		willBind[v] = true
	}
	for i, s := range sims {
		if used[i] {
			continue
		}
		if willBind[s.Var] {
			used[i] = true
			out = append(out, s)
		}
	}
	return out
}

// filtersFor returns the unused filters a step on pat would cover —
// every variable bound upstream or by pat — and their indexes.
func filtersFor(pat vql.Pattern, filters []vql.Expr, used []bool, bound map[string]bool) ([]vql.Expr, []int) {
	var out []vql.Expr
	var idx []int
	for fi, f := range filters {
		if used[fi] {
			continue
		}
		covered := true
		walkVars(f, func(v string) {
			if !bound[v] && !slices.Contains(pat.Vars(), v) {
				covered = false
			}
		})
		if covered {
			out = append(out, f)
			idx = append(idx, fi)
		}
	}
	return out, idx
}

func walkVars(e vql.Expr, fn func(string)) {
	switch x := e.(type) {
	case vql.Cmp:
		walkOperand(x.L, fn)
		walkOperand(x.R, fn)
	case vql.And:
		walkVars(x.L, fn)
		walkVars(x.R, fn)
	case vql.Or:
		walkVars(x.L, fn)
		walkVars(x.R, fn)
	case vql.Not:
		walkVars(x.E, fn)
	case vql.BoolFunc:
		for _, a := range x.Args {
			walkOperand(a, fn)
		}
	}
}

func walkOperand(o vql.Operand, fn func(string)) {
	switch x := o.(type) {
	case vql.VarOperand:
		fn(x.Name)
	case vql.FuncOperand:
		for _, a := range x.Args {
			walkOperand(a, fn)
		}
	}
}

// chooseStrategy selects the physical access path for a step, given
// the variables bound upstream and their estimated cardinality. With a
// streamable limit in effect for this step, candidate costs are scaled
// to what the early-terminating executor will actually pay — which
// penalizes the q-gram path (its gram phase is pure startup) relative
// to the shard-by-shard range scan. A step whose subject variable is
// bound upstream has two more ways to run: as a DHT index join on the
// OID index — one probe per distinct subject, batched per upstream
// page — or, for an A#v range, as a semi-join filtered scan (semi > 0,
// see physical.Step.Semi). The cheapest of the three wins; many
// bindings keep the plain region scan.
func (o *Optimizer) chooseStrategy(st physical.Step, bound map[string]bool, card float64, limit int) (strat physical.AccessStrategy, semi int) {
	if o.Opt.ForceStrategy != physical.StratAuto {
		if applicable(o.Opt.ForceStrategy, st) {
			return o.Opt.ForceStrategy, 0
		}
	}
	shape := physical.DefaultStrategy(st)
	if shape == physical.StratAVRange && o.Opt.UseQGram && len(simsFor(st.Pat, st.Sims, make([]bool, len(st.Sims)))) > 0 {
		// Compare the q-gram path against the attribute range scan.
		attr := st.Pat.A.Val.Str
		sim := st.Sims[0]
		attrCount := float64(o.Stats.AttrCount(attr))
		frac := attrCount / math.Max(float64(o.Stats.TotalTriples), 1)
		rangeCost := o.Stats.Range(frac, attrCount).ScaledToLimit(limit)
		qgramCost := o.Stats.QGramSearch(len(sim.Target), 3, sim.MaxDist, 8).ScaledToLimit(limit)
		if qgramCost.Messages < rangeCost.Messages {
			shape = physical.StratQGram
		}
	}
	if shape == physical.StratOIDLookup || !st.Pat.S.IsVar() || !bound[st.Pat.S.Var] {
		return shape, 0
	}
	st.Strat = shape
	st = narrowed(st)
	def := o.estimate(shape, st, card, bound).ScaledToLimit(limit)
	if n := o.semiCap(st, bound, card); n > 0 {
		st.Semi = n
		if e := o.estimate(shape, st, card, bound).ScaledToLimit(limit); e.Messages < def.Messages {
			def, semi = e, n
		}
	}
	probe := o.estimate(physical.StratOIDLookup, st, card, bound).ScaledToLimit(limit)
	if probe.Messages < def.Messages {
		return physical.StratOIDLookup, 0
	}
	return shape, semi
}

// semiShare is how far below the attribute's triple count the
// upstream cardinality must stay before a semi-join filtered scan is
// considered: the filter must prune most of the region to pay for the
// barrier it puts in front of the scan.
const semiShare = 0.5

// semiCap returns the Semi value of an A#v range step run as a
// semi-join filtered scan — the attribute's triple count — or 0 when
// the step cannot or should not: no A#v region scan (a bound value
// variable probes), no paging (the filter then saves bytes, never
// messages), an upstream within one page, or one that is not well
// below the count. An upstream within one page is one probe batch,
// and a probe step also resolves every other pattern on the subject
// from the same answer; the filtered scan is for upstreams that span
// several batches.
func (o *Optimizer) semiCap(st physical.Step, bound map[string]bool, card float64) int {
	if st.Strat != physical.StratAVRange || st.Pat.A.IsVar() || !st.Pat.V.IsVar() || bound[st.Pat.V.Var] {
		return 0
	}
	n := o.Stats.AttrCount(st.Pat.A.Val.Str)
	if o.Stats.PageSize <= 0 || card <= float64(o.Stats.PageSize) || card > semiShare*float64(n) {
		return 0
	}
	return n
}

// applicable reports whether a forced strategy can execute the step's
// pattern shape at all.
func applicable(s physical.AccessStrategy, st physical.Step) bool {
	pat := st.Pat
	switch s {
	case physical.StratOIDLookup:
		return !pat.S.IsVar() || pat.S.IsVar() // runtime probes handle bound vars
	case physical.StratAVLookup:
		return !pat.A.IsVar()
	case physical.StratAVRange:
		return !pat.A.IsVar()
	case physical.StratValLookup:
		return true
	case physical.StratBroadcast:
		return true
	case physical.StratQGram:
		return !pat.A.IsVar() && pat.V.IsVar() && len(st.Sims) > 0
	}
	return false
}

// estimate prices one step, given the variables bound upstream and
// their estimated cardinality. An OID lookup costs one probe per
// subject however many patterns it fuses.
func (o *Optimizer) estimate(strat physical.AccessStrategy, st physical.Step, card float64, bound map[string]bool) cost.Estimate {
	s := o.Stats
	attr := ""
	if !st.Pat.A.IsVar() {
		attr = st.Pat.A.Val.Str
	}
	attrCount := float64(s.AttrCount(attr))
	switch strat {
	case physical.StratOIDLookup:
		if st.Pat.S.IsVar() {
			return s.Probes(int(card), card)
		}
		return s.MultiLookup(1, card)
	case physical.StratAVLookup:
		return s.Lookup(attrCount * cost.EqSelectivity)
	case physical.StratAVRange:
		if st.Pat.V.IsVar() && bound[st.Pat.V.Var] {
			// Joins via bound values: parallel probes. A bound subject
			// alone does not help — the executor scans the region.
			return s.Probes(int(card), card)
		}
		// Pushed-down value predicates shrink the scanned share of the
		// region; a semi-join scan also sends at most one entry per
		// upstream subject.
		sel := 1.0
		if len(st.Narrow) > 0 {
			_, sel = pushdown(st)
		}
		rows := attrCount * sel
		frac := rows / math.Max(float64(s.TotalTriples), 1)
		if st.Semi > 0 && card < float64(st.Semi) {
			return s.Range(frac, math.Min(rows, card))
		}
		return s.Range(frac, rows)
	case physical.StratValLookup:
		return s.Lookup(attrCount * cost.EqSelectivity)
	case physical.StratBroadcast:
		return s.Broadcast(float64(s.TotalTriples))
	case physical.StratQGram:
		target := ""
		if len(st.Sims) > 0 {
			target = st.Sims[0].Target
		}
		return s.QGramSearch(len(target), 3, 2, 8)
	}
	return s.Broadcast(float64(s.TotalTriples))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
