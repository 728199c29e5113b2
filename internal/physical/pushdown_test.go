package physical

import (
	"reflect"
	"testing"

	"unistore/internal/keys"
	"unistore/internal/pgrid"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// TestPlanMsgCarriesPushdown: a migrating plan's narrowed intervals
// and semi-join mark survive the wire codec, and its modeled size
// counts them.
func TestPlanMsgCarriesPushdown(t *testing.T) {
	q, err := vql.ParseQuery(`SELECT ?n,?a WHERE {(?p,'age',?a) (?p,'name',?n) FILTER ?a < 30}`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	nums, _ := triple.AVNumberRange("age", -1e9, 30, false, true)
	plain := planMsg{Steps: p.Steps, Tail: p.Tail, Origin: 3, RootQID: 9}
	m := plain
	m.Steps = append([]Step(nil), p.Steps...)
	m.Steps[0].Narrow = []keys.Range{nums, triple.AVKindRange("age", triple.KindString)}
	m.Steps[1].Semi = 2000
	data, err := pgrid.EncodePayload(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pgrid.DecodePayload(data)
	if err != nil {
		t.Fatal(err)
	}
	steps := got.(planMsg).Steps
	if !reflect.DeepEqual(steps[0].Narrow, m.Steps[0].Narrow) || steps[1].Semi != 2000 {
		t.Errorf("decoded steps %+v, want %+v", steps, m.Steps)
	}
	if steps[1].String() != `av-range(?p,'name',?n) join[p] semi` {
		t.Errorf("semi step renders as %s", steps[1])
	}
	if m.WireSize() <= plain.WireSize() {
		t.Errorf("plan size %d does not count the pushdown (plain %d)", m.WireSize(), plain.WireSize())
	}
}
