package optimizer

import (
	"math"

	"unistore/internal/cost"
	"unistore/internal/keys"
	"unistore/internal/physical"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// Range pushdown. The A#v index keys values with the order-preserving
// hash, numbers before strings, so a predicate on an A#v range step's
// value variable is a set of key intervals the scan can route to
// directly. Two kinds of filter conjunct push down:
//
//   - ?v op n for op in <, <=, >, >=, = and a numeric literal n (either
//     operand order);
//   - startswith(?v, 'p').
//
// The intervals must cover every value the filter can accept, and the
// filter compares loosely: a string that parses as a number compares
// numerically ("25" < 30), any other string lexically ("!" < "30"),
// and startswith tests a number's formatted text ("25" starts with
// "2"). A numeric comparison therefore scans its numeric sub-interval
// plus the attribute's whole string sub-region, and startswith scans
// its string prefix interval plus the whole numeric sub-region unless
// no formatted number can start with the prefix. The filters stay
// attached, so the pushdown only ever drops rows they would reject.

// narrowed returns st with the key intervals its filters push down,
// when st is an A#v range scan; other steps come back without any.
func narrowed(st physical.Step) physical.Step {
	st.Narrow = nil
	if st.Strat == physical.StratAVRange {
		st.Narrow, _ = pushdown(st)
	}
	return st
}

// pushdown returns the key intervals, in key order, that the step's
// filter conjuncts on its value variable allow, and the selectivity
// the optimizer prices them at: cost.EqSelectivity for an equality,
// cost.RangeSelectivity per bound otherwise (its square for a
// two-sided range). nil and 1 mean nothing pushes down.
func pushdown(st physical.Step) ([]keys.Range, float64) {
	pat := st.Pat
	if pat.A.IsVar() || !pat.V.IsVar() {
		return nil, 1
	}
	v := pat.V.Var
	lo, hi := math.Inf(-1), math.Inf(1)
	var loOpen, hiOpen, hasLo, hasHi, eq bool
	prefix := ""
	for _, f := range st.Filters {
		for _, c := range conjuncts(f, nil) {
			if p, ok := prefixOf(c, v); ok {
				if len(p) > len(prefix) {
					prefix = p
				}
				continue
			}
			op, n, ok := boundOf(c, v)
			if !ok {
				continue
			}
			if op == "=" {
				eq = true
			}
			if op == "=" || op == ">" || op == ">=" {
				if open := op == ">"; !hasLo || n > lo || (n == lo && open) {
					lo, loOpen, hasLo = n, open, true
				}
			}
			if op == "=" || op == "<" || op == "<=" {
				if open := op == "<"; !hasHi || n < hi || (n == hi && open) {
					hi, hiOpen, hasHi = n, open, true
				}
			}
		}
	}
	if !hasLo && !hasHi && prefix == "" {
		return nil, 1
	}
	sel := cost.EqSelectivity
	if !eq {
		sel = 1
		for _, on := range []bool{hasLo, hasHi, prefix != ""} {
			if on {
				sel *= cost.RangeSelectivity
			}
		}
	}
	attr := pat.A.Val.Str
	if prefix != "" {
		var out []keys.Range
		if numericText(prefix) {
			if !hasLo && !hasHi {
				out = append(out, triple.AVKindRange(attr, triple.KindNumber))
			} else if r, ok := triple.AVNumberRange(attr, lo, hi, loOpen, hiOpen); ok {
				out = append(out, r)
			}
		}
		return append(out, triple.AVStringPrefixRange(attr, prefix)), sel
	}
	nums, ok := triple.AVNumberRange(attr, lo, hi, loOpen, hiOpen)
	strs := triple.AVKindRange(attr, triple.KindString)
	switch {
	case !ok:
		return []keys.Range{strs}, sel
	case !hasHi:
		// No upper bound: the numbers from lo up, the NaNs and the
		// strings form one interval that runs to the region's end
		// (strings are the region's last values).
		return []keys.Range{{Lo: nums.Lo, Hi: strs.Hi, HiOpen: strs.HiOpen}}, sel
	}
	return []keys.Range{nums, strs}, sel
}

// conjuncts appends the top-level AND operands of e to out.
func conjuncts(e vql.Expr, out []vql.Expr) []vql.Expr {
	if a, ok := e.(vql.And); ok {
		return conjuncts(a.R, conjuncts(a.L, out))
	}
	return append(out, e)
}

// flipped mirrors a comparison for swapped operands: n < ?v is ?v > n.
var flipped = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}

// boundOf reads a conjunct as ?v op n, for the variable v and a
// numeric literal n, in either operand order.
func boundOf(e vql.Expr, v string) (op string, n float64, ok bool) {
	c, isCmp := e.(vql.Cmp)
	if !isCmp {
		return "", 0, false
	}
	op, ok = flipped[c.Op]
	if !ok {
		return "", 0, false
	}
	vo, vok := c.L.(vql.VarOperand)
	lit, lok := c.R.(vql.LitOperand)
	if vok && lok {
		op = c.Op
	} else {
		vo, vok = c.R.(vql.VarOperand)
		lit, lok = c.L.(vql.LitOperand)
	}
	if !vok || !lok || vo.Name != v || lit.Val.Kind != triple.KindNumber || math.IsNaN(lit.Val.Num) {
		return "", 0, false
	}
	return op, lit.Val.Num, true
}

// prefixOf reads a conjunct as startswith(?v, 'p') with a non-empty
// string literal p.
func prefixOf(e vql.Expr, v string) (string, bool) {
	bf, ok := e.(vql.BoolFunc)
	if !ok || bf.Name != "startswith" || len(bf.Args) != 2 {
		return "", false
	}
	vo, ok := bf.Args[0].(vql.VarOperand)
	if !ok || vo.Name != v {
		return "", false
	}
	lit, ok := bf.Args[1].(vql.LitOperand)
	if !ok || lit.Val.Kind != triple.KindString || lit.Val.Str == "" {
		return "", false
	}
	return lit.Val.Str, true
}

// numericText reports whether a formatted number can start with p:
// Value.String renders numbers with strconv's 'g' format, whose text
// starts with a digit, a sign, or the N of NaN.
func numericText(p string) bool {
	switch c := p[0]; {
	case c >= '0' && c <= '9', c == '-', c == '+', c == 'N':
		return true
	}
	return false
}
