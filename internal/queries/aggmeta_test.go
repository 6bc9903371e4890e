package queries

import (
	"strings"
	"testing"
)

// TestAggFuncStrings pins the SQL spelling of every aggregate function and
// the slot width AVG needs to merge exactly across partials.
func TestAggFuncStrings(t *testing.T) {
	want := map[AggFunc]string{
		FuncSum:   "SUM",
		FuncCount: "COUNT",
		FuncAvg:   "AVG",
		FuncMin:   "MIN",
		FuncMax:   "MAX",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("AggFunc(%d).String() = %q, want %q", f, f.String(), s)
		}
		spec := AggSpec{Func: f, Expr: AggSumRevenue}
		slots := 1
		if f == FuncAvg {
			slots = 2
		}
		if spec.Slots() != slots {
			t.Errorf("%s.Slots() = %d, want %d", s, spec.Slots(), slots)
		}
	}
}

// TestAggSpecSQL pins the rendered aggregate expressions, including the
// canonical COUNT(*) print and all three input expressions.
func TestAggSpecSQL(t *testing.T) {
	cases := []struct {
		spec AggSpec
		want string
	}{
		{AggSpec{Func: FuncSum, Expr: AggSumRevenue}, "SUM(lo.revenue)"},
		{AggSpec{Func: FuncCount, Expr: AggSumRevenue}, "COUNT(*)"},
		{AggSpec{Func: FuncAvg, Expr: AggSumExtDisc}, "AVG(lo.extprice * lo.discount)"},
		{AggSpec{Func: FuncMin, Expr: AggSumProfit}, "MIN(lo.revenue - lo.supplycost)"},
		{AggSpec{Func: FuncMax, Expr: AggSumRevenue}, "MAX(lo.revenue)"},
	}
	for _, c := range cases {
		if got := c.spec.SQL(); got != c.want {
			t.Errorf("%v.SQL() = %q, want %q", c.spec, got, c.want)
		}
	}
	for _, k := range []AggKind{AggSumRevenue, AggSumExtDisc, AggSumProfit} {
		if got := k.SQL(); !strings.HasPrefix(got, "SUM(") {
			t.Errorf("AggKind(%d).SQL() = %q, want a SUM(...) rendering", k, got)
		}
	}
}

// TestCanonicalExtendedSegments pins the cache-key encoding of the
// multi-aggregate / ORDER BY / LIMIT segments — and that a query using
// none of them keeps its exact historical key, which is what preserves
// pre-existing cache entries and benchmark baselines.
func TestCanonicalExtendedSegments(t *testing.T) {
	base := Query{ID: "k", Agg: AggSumRevenue}
	legacy := base.Canonical()
	if strings.Contains(legacy, "aggs=") || strings.Contains(legacy, "order=") || strings.Contains(legacy, "limit=") {
		t.Fatalf("legacy query grew new canonical segments: %q", legacy)
	}

	ext := base
	ext.Aggs = []AggSpec{{Func: FuncSum, Expr: AggSumRevenue}, {Func: FuncAvg, Expr: AggSumProfit}}
	ext.OrderBy = []OrderKey{{Item: 1, Desc: true}, {Item: -1, Group: 0}}
	ext.Limit = 5
	got := ext.Canonical()
	if !strings.HasPrefix(got, legacy) {
		t.Fatalf("extended canonical %q does not extend the legacy prefix %q", got, legacy)
	}
	for _, seg := range []string{";aggs=0.0,2.2", ";order=a1d,g0", ";limit=5"} {
		if !strings.Contains(got, seg) {
			t.Errorf("canonical %q missing segment %q", got, seg)
		}
	}

	// Distinct order directions and targets must never collide.
	asc := ext
	asc.OrderBy = []OrderKey{{Item: 1}, {Item: -1, Group: 0}}
	if asc.Canonical() == ext.Canonical() {
		t.Error("ASC and DESC order keys share a canonical form")
	}
}

// TestResultEqualExtended exercises the Ordered/Aggs arms of Result.Equal:
// order-sensitive comparison and every mismatch branch.
func TestResultEqualExtended(t *testing.T) {
	mk := func() *Result {
		return &Result{
			Groups: map[int64]int64{1: 10, 2: 20},
			Aggs:   map[int64][]int64{1: {10, 3}, 2: {20, 4}},
			Ordered: []Row{
				{Key: 2, Vals: []int64{20, 4}},
				{Key: 1, Vals: []int64{10, 3}},
			},
		}
	}
	r := mk()
	if !r.Equal(mk()) {
		t.Fatal("identical extended results compare unequal")
	}

	perm := mk()
	perm.Ordered[0], perm.Ordered[1] = perm.Ordered[1], perm.Ordered[0]
	if r.Equal(perm) {
		t.Error("Equal ignored the output order")
	}
	noOrder := mk()
	noOrder.Ordered = nil
	if r.Equal(noOrder) || noOrder.Equal(r) {
		t.Error("Equal treats ordered and unordered results as equal")
	}
	val := mk()
	val.Ordered[1].Vals[1] = 99
	if r.Equal(val) {
		t.Error("Equal missed an ordered aggregate value change")
	}
	width := mk()
	width.Ordered[1].Vals = width.Ordered[1].Vals[:1]
	if r.Equal(width) {
		t.Error("Equal missed an ordered row width change")
	}
	aggs := mk()
	aggs.Aggs[2][1] = 99
	if r.Equal(aggs) {
		t.Error("Equal missed an aggregate slot change")
	}
	aggKey := mk()
	delete(aggKey.Aggs, 2)
	aggKey.Aggs[3] = []int64{20, 4}
	if r.Equal(aggKey) {
		t.Error("Equal missed an aggregate key change")
	}
	noAggs := mk()
	noAggs.Aggs = nil
	if r.Equal(noAggs) {
		t.Error("Equal treats multi-aggregate and legacy results as equal")
	}
}

// TestValidateExtendedErrors walks the validation rules the multi-aggregate
// and ORDER BY surface added.
func TestValidateExtendedErrors(t *testing.T) {
	valid := Query{
		ID:   "v",
		Agg:  AggSumRevenue,
		Aggs: []AggSpec{{Func: FuncSum, Expr: AggSumRevenue}, {Func: FuncCount}},
		Joins: []JoinSpec{
			{Dim: "date", FactFK: "orderdate", Payload: "year"},
		},
		OrderBy: []OrderKey{{Item: 0, Desc: true}, {Item: -1, Group: 0}},
		Limit:   5,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("fixture query invalid: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Query)
		want string
	}{
		{"empty aggregate list", func(q *Query) { q.Aggs = []AggSpec{} }, "empty aggregate list"},
		{"unknown function", func(q *Query) { q.Aggs[0].Func = 99 }, "unknown function"},
		{"unknown expression", func(q *Query) { q.Aggs[0].Expr = 99 }, "unknown expression"},
		{"order item out of range", func(q *Query) { q.OrderBy[0].Item = 2 }, "references aggregate"},
		{"order item below -1", func(q *Query) { q.OrderBy[0].Item = -2 }, "references aggregate"},
		{"order group out of range", func(q *Query) { q.OrderBy[1].Group = 1 }, "references group column"},
		{"negative limit", func(q *Query) { q.Limit = -1 }, "negative limit"},
		{"limit without order", func(q *Query) { q.OrderBy = nil }, "LIMIT without ORDER BY"},
	}
	for _, c := range cases {
		q := valid
		q.Aggs = append([]AggSpec(nil), valid.Aggs...)
		q.OrderBy = append([]OrderKey(nil), valid.OrderBy...)
		c.mut(&q)
		err := q.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// TestDescribeExtended pins the SQL rendering of multi-aggregate, ORDER BY
// and LIMIT clauses, and that DecodeRows emits ordered rows in statement
// order with every aggregate value attached.
func TestDescribeExtended(t *testing.T) {
	q := Query{
		ID:   "desc-ext",
		Agg:  AggSumRevenue,
		Aggs: []AggSpec{{Func: FuncSum, Expr: AggSumRevenue}, {Func: FuncAvg, Expr: AggSumRevenue}, {Func: FuncCount}},
		Joins: []JoinSpec{
			{Dim: "date", FactFK: "orderdate", Payload: "year"},
		},
		OrderBy: []OrderKey{{Item: 1, Desc: true}, {Item: -1, Group: 0}},
		Limit:   3,
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	sql := q.Describe()
	for _, frag := range []string{"SUM(lo.revenue)", "AVG(lo.revenue)", "COUNT(*)", "ORDER BY 2 DESC, date.year", "LIMIT 3"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("Describe() missing %q:\n%s", frag, sql)
		}
	}

	res := Compile(testDS, q).Run(EngineCPU)
	if res.Ordered == nil {
		t.Fatal("ordered query produced no Ordered rows")
	}
	rows := q.DecodeRows(res)
	if len(rows) != len(res.Ordered) || len(rows) == 0 {
		t.Fatalf("DecodeRows returned %d rows for %d ordered rows", len(rows), len(res.Ordered))
	}
	for i, r := range rows {
		if len(r.Vals) != 3 {
			t.Fatalf("row %d carries %d aggregate values, want 3", i, len(r.Vals))
		}
		if r.Sum != r.Vals[0] {
			t.Errorf("row %d legacy Sum %d != Vals[0] %d", i, r.Sum, r.Vals[0])
		}
		if len(r.Labels) != 1 {
			t.Fatalf("row %d carries %d labels, want 1", i, len(r.Labels))
		}
		if i > 0 && rows[i-1].Vals[1] < r.Vals[1] {
			t.Errorf("rows %d,%d not in ORDER BY 2 DESC order: %d < %d", i-1, i, rows[i-1].Vals[1], r.Vals[1])
		}
	}

	// The unordered arm of DecodeRows: same query without ORDER BY comes
	// back in packed-key (group-by) order.
	plain := q
	plain.OrderBy = nil
	plain.Limit = 0
	pres := Compile(testDS, plain).Run(EngineCPU)
	prows := plain.DecodeRows(pres)
	if len(prows) == 0 {
		t.Fatal("unordered DecodeRows returned nothing")
	}
}
