package queries

import (
	"strings"
	"testing"
)

func TestAllQueriesValidate(t *testing.T) {
	for _, q := range All() {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.ID, err)
		}
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	cases := []Query{
		{}, // no id
		{ID: "x", FactFilters: []Filter{{Col: "nope", Lo: 0, Hi: 1}}},                                                        // bad fact col
		{ID: "x", FactFilters: []Filter{{Col: "quantity", Lo: 5, Hi: 1}}},                                                    // empty range
		{ID: "x", FactFilters: []Filter{{Col: "quantity", In: []int32{}}}},                                                   // empty IN
		{ID: "x", Joins: []JoinSpec{{Dim: "nope", FactFK: "suppkey"}}},                                                       // bad dim
		{ID: "x", Joins: []JoinSpec{{Dim: "supplier", FactFK: "nope"}}},                                                      // bad FK
		{ID: "x", Joins: []JoinSpec{{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "brand1", Lo: 0, Hi: 1}}}}}, // wrong dim col
		{ID: "x", Joins: []JoinSpec{{Dim: "supplier", FactFK: "suppkey", Payload: "brand1"}}},                                // wrong payload
		{ID: "x", Joins: []JoinSpec{
			{Dim: "supplier", FactFK: "suppkey", Payload: "city"},
			{Dim: "customer", FactFK: "custkey", Payload: "city"},
			{Dim: "part", FactFK: "partkey", Payload: "brand1"},
			{Dim: "date", FactFK: "orderdate", Payload: "year"},
		}}, // 4 group keys
	}
	for i, q := range cases {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestDescribeRendersSQL(t *testing.T) {
	q, _ := ByID("q2.1")
	sql := q.Describe()
	for _, want := range []string{
		"SUM(lo.revenue)",
		"FROM lineorder, supplier, part, date",
		"lo.suppkey = supplier.key",
		"supplier.region = 'AMERICA'",
		"part.category = 'MFGR#12'",
		"GROUP BY part.brand1, date.year",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("q2.1 SQL missing %q:\n%s", want, sql)
		}
	}

	q11, _ := ByID("q1.1")
	sql = q11.Describe()
	for _, want := range []string{
		"SUM(lo.extprice * lo.discount)",
		"lo.orderdate BETWEEN 19930101 AND 19931231",
		"lo.discount BETWEEN 1 AND 3",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("q1.1 SQL missing %q:\n%s", want, sql)
		}
	}
	if strings.Contains(sql, "GROUP BY") {
		t.Error("q1.1 has no group by")
	}

	q33, _ := ByID("q3.3")
	if sql := q33.Describe(); !strings.Contains(sql, "customer.city IN ('UNITED KI1', 'UNITED KI5')") {
		t.Errorf("q3.3 IN rendering wrong:\n%s", sql)
	}
}

func TestFilterOrderInvariance(t *testing.T) {
	// Reordering the fact filters changes traffic but never the rows.
	q, _ := ByID("q1.1")
	reordered := q
	reordered.FactFilters = []Filter{q.FactFilters[2], q.FactFilters[0], q.FactFilters[1]}
	a := Compile(testDS, q).Run(EngineGPU)
	b := Compile(testDS, reordered).Run(EngineGPU)
	if !a.Equal(b) {
		t.Error("filter order changed the result rows")
	}
	c := Compile(testDS, reordered).Run(EngineCPU)
	if !a.Equal(c) {
		t.Error("CPU disagrees under reordered filters")
	}
}

func TestDecodeRows(t *testing.T) {
	q, _ := ByID("q2.1")
	res := Compile(testDS, q).Run(EngineGPU)
	rows := q.DecodeRows(res)
	if len(rows) != len(res.Groups) {
		t.Fatalf("decoded %d rows, want %d", len(rows), len(res.Groups))
	}
	for _, r := range rows {
		if len(r.Labels) != 2 {
			t.Fatalf("labels = %v", r.Labels)
		}
		if !strings.HasPrefix(r.Labels[0], "MFGR#12") {
			t.Errorf("brand label %q outside category", r.Labels[0])
		}
		if len(r.Labels[1]) != 4 || r.Labels[1][:3] != "199" {
			t.Errorf("year label %q", r.Labels[1])
		}
	}
	// No-group query decodes to a single unlabeled row.
	q11, _ := ByID("q1.1")
	res11 := Compile(testDS, q11).Run(EngineGPU)
	rows11 := q11.DecodeRows(res11)
	if len(rows11) != 1 || len(rows11[0].Labels) != 0 {
		t.Errorf("q1.1 decode = %+v", rows11)
	}
}
