// Package queries implements the 13 Star Schema Benchmark queries for every
// engine the paper evaluates (Section 5): the tile-based Crystal engine on
// the GPU ("Standalone GPU"), an equivalent vectorized CPU engine
// ("Standalone CPU"), the GPU-as-coprocessor architecture of Section 3.1,
// and architecture stand-ins for the three third-party systems — Hyper
// (compiled push-based, scalar), MonetDB (operator-at-a-time with full
// materialization) and Omnisci (GPU, independent-threads kernels).
//
// All engines execute the same logical plans on the same generated data and
// must return identical result rows; their simulated runtimes differ only
// through the memory traffic their physical execution styles generate.
package queries

import (
	"fmt"
	"sort"

	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// Filter is a predicate on a single column: either an inclusive range
// [Lo, Hi] or, when In is non-nil, a small membership set.
type Filter struct {
	Col string
	Lo  int32
	Hi  int32
	In  []int32
}

// Match reports whether v satisfies the filter.
func (f *Filter) Match(v int32) bool {
	if f.In != nil {
		for _, x := range f.In {
			if v == x {
				return true
			}
		}
		return false
	}
	return f.Lo <= v && v <= f.Hi
}

// JoinSpec is one dimension join in plan order: the fact foreign key probes
// a hash table built over the dimension rows that satisfy Filters. Payload
// names the dimension attribute carried out for grouping ("" for pure
// semijoin filters).
type JoinSpec struct {
	Dim     string
	FactFK  string
	Filters []Filter
	Payload string
}

// AggKind selects the aggregate expression.
type AggKind int

const (
	// AggSumRevenue computes SUM(lo_revenue).
	AggSumRevenue AggKind = iota
	// AggSumExtDisc computes SUM(lo_extendedprice * lo_discount) (q1.x).
	AggSumExtDisc
	// AggSumProfit computes SUM(lo_revenue - lo_supplycost) (q4.x).
	AggSumProfit
)

// Columns returns the fact columns the aggregate reads.
func (a AggKind) Columns() []string {
	switch a {
	case AggSumExtDisc:
		return []string{"extprice", "discount"}
	case AggSumProfit:
		return []string{"revenue", "supplycost"}
	default:
		return []string{"revenue"}
	}
}

// Eval computes the aggregate delta for one row given the column values in
// the order returned by Columns.
func (a AggKind) Eval(v []int32) int64 {
	switch a {
	case AggSumExtDisc:
		return int64(v[0]) * int64(v[1])
	case AggSumProfit:
		return int64(v[0]) - int64(v[1])
	default:
		return int64(v[0])
	}
}

// Query is one SSB query: selections on the fact table, a pipeline of
// dimension joins (in plan order), and a grouped aggregate. Group keys are
// the Payload attributes of the joins that declare one, in join order.
//
// Agg spells a single SUM; Aggs, when non-nil, replaces it with an ordered
// list of aggregate functions (COUNT/AVG/MIN/MAX alongside SUM) evaluated in
// one pass. The engines execute Agg as the list of one it stands for
// (AggList); only the reply shape differs (Result.Aggs).
// OrderBy/Limit request an ordered (optionally truncated) result; see
// OrderKey.
type Query struct {
	ID          string
	FactFilters []Filter
	Joins       []JoinSpec
	Agg         AggKind
	Aggs        []AggSpec
	OrderBy     []OrderKey
	Limit       int
}

// ReferencedFactColumns returns the distinct fact columns the query reads
// (filter columns, probed foreign keys, aggregate inputs), sorted so that
// transfer pricing and residency caches see a deterministic order. It is
// the column working set a coprocessor or a fleet spill must move.
func (q *Query) ReferencedFactColumns() []string {
	seen := map[string]bool{}
	var cols []string
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	for _, f := range q.FactFilters {
		add(f.Col)
	}
	for _, j := range q.Joins {
		add(j.FactFK)
	}
	for _, c := range q.AggColumns() {
		add(c)
	}
	sort.Strings(cols)
	return cols
}

// GroupEstimate returns the capped estimate of the number of result groups
// the engines size their aggregation tables with; schedulers use it to
// price cross-device partial-aggregate merges.
func (q *Query) GroupEstimate() int { return aggEstimate(*q) }

// GroupPayloads returns the joins that contribute a group-by key.
func (q *Query) GroupPayloads() []JoinSpec {
	var out []JoinSpec
	for _, j := range q.Joins {
		if j.Payload != "" {
			out = append(out, j)
		}
	}
	return out
}

// groupShift is the per-payload width in the packed group key; every SSB
// group attribute (year, brand, nation, city, category) fits in 20 bits.
const groupShift = 20

// PackGroup packs payload values (join order) into one int64 key.
func PackGroup(vals []int32) int64 {
	var key int64
	for _, v := range vals {
		key = key<<groupShift | int64(v)
	}
	return key
}

// UnpackGroup splits a packed key back into n payload values.
func UnpackGroup(key int64, n int) []int32 {
	out := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = int32(key & (1<<groupShift - 1))
		key >>= groupShift
	}
	return out
}

// Row is one finalized output row: the packed group key plus the value of
// every aggregate of the statement, in statement order.
type Row struct {
	Key  int64
	Vals []int64
}

// Result is a query result: packed group key -> aggregate sum. Queries with
// no group-by use the single key 0. A result carries no query identity:
// queries with one canonical form may share one result, so the caller's own
// Query names it.
type Result struct {
	Groups map[int64]int64
	// Aggs holds the finalized value of every aggregate per group for
	// statements spelled as an aggregate list (nil for the Agg spelling,
	// whose only aggregate is Groups). Groups always carries the first
	// aggregate.
	Aggs map[int64][]int64
	// Ordered is the ORDER BY output: finalized rows in statement order,
	// truncated to LIMIT. Nil when the query has no ORDER BY.
	Ordered []Row
	// Seconds is the engine's simulated execution time.
	Seconds float64
	// KernelSeconds is the pure execution component of Seconds for runs
	// whose transfer overlaps execution (the coprocessor): Seconds is
	// max(KernelSeconds, transfer time). On-device engines leave it zero —
	// their Seconds is all kernel. Like Morsels/Pruned it describes
	// execution, not rows: Equal ignores it.
	KernelSeconds float64
	// Morsels is the number of fact-table partitions the run was split into
	// (1 for a monolithic run); Pruned counts the morsels zone maps skipped.
	// Both describe execution, not the rows, so Equal ignores them.
	Morsels int
	Pruned  int
	// Packed reports whether the run scanned the bit-packed fact encoding.
	// TransferBytes is the PCIe traffic a coprocessor run actually shipped
	// (0 for on-device engines) and ResidentCols the referenced fact
	// columns a device-residency cache served without any transfer. Like
	// Morsels/Pruned they describe execution, not rows: Equal ignores them.
	Packed        bool
	TransferBytes int64
	ResidentCols  int

	// accs carries a partial execution's raw (unfinalized) accumulator table
	// from the kernel to the scheduler's merge; RunScheduled consumes it and
	// never sets it on results handed to callers.
	accs *sched.AccTable
}

// Rows returns the result rows for comparison and display: in statement
// order for ORDER BY results, otherwise sorted by group key. Only the first
// aggregate is projected; see Ordered/Aggs for the full vectors.
func (r *Result) Rows() [][2]int64 {
	if r.Ordered != nil {
		rows := make([][2]int64, len(r.Ordered))
		for i, row := range r.Ordered {
			rows[i] = [2]int64{row.Key, row.Vals[0]}
		}
		return rows
	}
	rows := make([][2]int64, 0, len(r.Groups))
	for k, v := range r.Groups {
		rows = append(rows, [2]int64{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	return rows
}

// Equal reports whether two results contain identical rows — including every
// aggregate value and, for ORDER BY results, the output order.
func (r *Result) Equal(o *Result) bool {
	if (r.Ordered == nil) != (o.Ordered == nil) || len(r.Ordered) != len(o.Ordered) {
		return false
	}
	for i, a := range r.Ordered {
		b := o.Ordered[i]
		if a.Key != b.Key || len(a.Vals) != len(b.Vals) {
			return false
		}
		for s, v := range a.Vals {
			if b.Vals[s] != v {
				return false
			}
		}
	}
	if (r.Aggs == nil) != (o.Aggs == nil) || len(r.Aggs) != len(o.Aggs) {
		return false
	}
	for k, av := range r.Aggs {
		bv, ok := o.Aggs[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for s, v := range av {
			if bv[s] != v {
				return false
			}
		}
	}
	if len(r.Groups) != len(o.Groups) {
		return false
	}
	for k, v := range r.Groups {
		if o.Groups[k] != v {
			return false
		}
	}
	return true
}

// Milliseconds returns the simulated runtime in ms.
func (r *Result) Milliseconds() float64 { return r.Seconds * 1e3 }

// FactCol resolves a fact column by name (ssb.Lineorder.Col re-exported at
// the query layer; unknown names panic there).
func FactCol(l *ssb.Lineorder, name string) []int32 { return l.Col(name) }

// DimTable resolves a dimension by name.
func DimTable(ds *ssb.Dataset, name string) *ssb.Dim {
	switch name {
	case "date":
		return &ds.Date
	case "customer":
		return &ds.Customer
	case "supplier":
		return &ds.Supplier
	case "part":
		return &ds.Part
	}
	panic(fmt.Sprintf("queries: unknown dimension %q", name))
}

// All returns the 13 SSB queries (Section 5.1) with the paper's rewrite:
// dictionary-encoded literals and, for flight q1.x, date predicates pushed
// onto lo_orderdate directly. Join order follows Section 5.3 (most
// selective dimension first; q2.x joins supplier, then part, then date).
func All() []Query {
	uki1, uki5 := ssb.CityCode("UNITED KI1"), ssb.CityCode("UNITED KI5")
	us := int32(9) // UNITED STATES nation code
	return []Query{
		{
			ID: "q1.1",
			FactFilters: []Filter{
				{Col: "orderdate", Lo: 19930101, Hi: 19931231},
				{Col: "discount", Lo: 1, Hi: 3},
				{Col: "quantity", Lo: 1, Hi: 24},
			},
			Agg: AggSumExtDisc,
		},
		{
			ID: "q1.2",
			FactFilters: []Filter{
				{Col: "orderdate", Lo: 19940101, Hi: 19940131},
				{Col: "discount", Lo: 4, Hi: 6},
				{Col: "quantity", Lo: 26, Hi: 35},
			},
			Agg: AggSumExtDisc,
		},
		{
			ID: "q1.3",
			// d_weeknuminyear = 6 AND d_year = 1994: days 36..42 of 1994.
			FactFilters: []Filter{
				{Col: "orderdate", Lo: 19940205, Hi: 19940211},
				{Col: "discount", Lo: 5, Hi: 7},
				{Col: "quantity", Lo: 26, Hi: 35},
			},
			Agg: AggSumExtDisc,
		},
		{
			ID: "q2.1",
			Joins: []JoinSpec{
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "region", Lo: ssb.America, Hi: ssb.America}}},
				{Dim: "part", FactFK: "partkey", Filters: []Filter{{Col: "category", Lo: ssb.CategoryCode("MFGR#12"), Hi: ssb.CategoryCode("MFGR#12")}}, Payload: "brand1"},
				{Dim: "date", FactFK: "orderdate", Payload: "year"},
			},
			Agg: AggSumRevenue,
		},
		{
			ID: "q2.2",
			Joins: []JoinSpec{
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "region", Lo: ssb.Asia, Hi: ssb.Asia}}},
				{Dim: "part", FactFK: "partkey", Filters: []Filter{{Col: "brand1", Lo: ssb.BrandCode("MFGR#2221"), Hi: ssb.BrandCode("MFGR#2228")}}, Payload: "brand1"},
				{Dim: "date", FactFK: "orderdate", Payload: "year"},
			},
			Agg: AggSumRevenue,
		},
		{
			ID: "q2.3",
			Joins: []JoinSpec{
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "region", Lo: ssb.Europe, Hi: ssb.Europe}}},
				{Dim: "part", FactFK: "partkey", Filters: []Filter{{Col: "brand1", Lo: ssb.BrandCode("MFGR#2239"), Hi: ssb.BrandCode("MFGR#2239")}}, Payload: "brand1"},
				{Dim: "date", FactFK: "orderdate", Payload: "year"},
			},
			Agg: AggSumRevenue,
		},
		{
			ID: "q3.1",
			Joins: []JoinSpec{
				{Dim: "customer", FactFK: "custkey", Filters: []Filter{{Col: "region", Lo: ssb.Asia, Hi: ssb.Asia}}, Payload: "nation"},
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "region", Lo: ssb.Asia, Hi: ssb.Asia}}, Payload: "nation"},
				{Dim: "date", FactFK: "orderdate", Filters: []Filter{{Col: "year", Lo: 1992, Hi: 1997}}, Payload: "year"},
			},
			Agg: AggSumRevenue,
		},
		{
			ID: "q3.2",
			Joins: []JoinSpec{
				{Dim: "customer", FactFK: "custkey", Filters: []Filter{{Col: "nation", Lo: us, Hi: us}}, Payload: "city"},
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "nation", Lo: us, Hi: us}}, Payload: "city"},
				{Dim: "date", FactFK: "orderdate", Filters: []Filter{{Col: "year", Lo: 1992, Hi: 1997}}, Payload: "year"},
			},
			Agg: AggSumRevenue,
		},
		{
			ID: "q3.3",
			Joins: []JoinSpec{
				{Dim: "customer", FactFK: "custkey", Filters: []Filter{{Col: "city", In: []int32{uki1, uki5}}}, Payload: "city"},
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "city", In: []int32{uki1, uki5}}}, Payload: "city"},
				{Dim: "date", FactFK: "orderdate", Filters: []Filter{{Col: "year", Lo: 1992, Hi: 1997}}, Payload: "year"},
			},
			Agg: AggSumRevenue,
		},
		{
			ID: "q3.4",
			Joins: []JoinSpec{
				{Dim: "customer", FactFK: "custkey", Filters: []Filter{{Col: "city", In: []int32{uki1, uki5}}}, Payload: "city"},
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "city", In: []int32{uki1, uki5}}}, Payload: "city"},
				{Dim: "date", FactFK: "orderdate", Filters: []Filter{{Col: "yearmonthnum", Lo: 199712, Hi: 199712}}, Payload: "year"},
			},
			Agg: AggSumRevenue,
		},
		{
			ID: "q4.1",
			Joins: []JoinSpec{
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "region", Lo: ssb.America, Hi: ssb.America}}},
				{Dim: "customer", FactFK: "custkey", Filters: []Filter{{Col: "region", Lo: ssb.America, Hi: ssb.America}}, Payload: "nation"},
				{Dim: "part", FactFK: "partkey", Filters: []Filter{{Col: "mfgr", Lo: 0, Hi: 1}}},
				{Dim: "date", FactFK: "orderdate", Payload: "year"},
			},
			Agg: AggSumProfit,
		},
		{
			ID: "q4.2",
			Joins: []JoinSpec{
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "region", Lo: ssb.America, Hi: ssb.America}}, Payload: "nation"},
				{Dim: "customer", FactFK: "custkey", Filters: []Filter{{Col: "region", Lo: ssb.America, Hi: ssb.America}}},
				{Dim: "part", FactFK: "partkey", Filters: []Filter{{Col: "mfgr", Lo: 0, Hi: 1}}, Payload: "category"},
				{Dim: "date", FactFK: "orderdate", Filters: []Filter{{Col: "year", Lo: 1997, Hi: 1998}}, Payload: "year"},
			},
			Agg: AggSumProfit,
		},
		{
			ID: "q4.3",
			Joins: []JoinSpec{
				{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "nation", Lo: us, Hi: us}}, Payload: "city"},
				{Dim: "customer", FactFK: "custkey", Filters: []Filter{{Col: "region", Lo: ssb.America, Hi: ssb.America}}},
				{Dim: "part", FactFK: "partkey", Filters: []Filter{{Col: "category", Lo: ssb.CategoryCode("MFGR#14"), Hi: ssb.CategoryCode("MFGR#14")}}, Payload: "brand1"},
				{Dim: "date", FactFK: "orderdate", Filters: []Filter{{Col: "year", Lo: 1997, Hi: 1998}}, Payload: "year"},
			},
			Agg: AggSumProfit,
		},
	}
}

// ByID returns the query with the given id.
func ByID(id string) (Query, error) {
	for _, q := range All() {
		if q.ID == id {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("queries: unknown query %q", id)
}

// Reference executes the query row-at-a-time with plain Go maps; it is the
// correctness oracle every engine is validated against.
func Reference(ds *ssb.Dataset, q Query) *Result {
	// Dimension key -> row index maps.
	dimIdx := map[string]map[int32]int{}
	for _, j := range q.Joins {
		if dimIdx[j.Dim] == nil {
			d := DimTable(ds, j.Dim)
			m := make(map[int32]int, d.Rows())
			for i, k := range d.Key {
				m[k] = i
			}
			dimIdx[j.Dim] = m
		}
	}
	st := newAggState(&q)
	aggCols := q.AggColumns()
	aggSlices := make([][]int32, len(aggCols))
	for i, c := range aggCols {
		aggSlices[i] = FactCol(&ds.Lineorder, c)
	}
	filterSlices := make([][]int32, len(q.FactFilters))
	for i, f := range q.FactFilters {
		filterSlices[i] = FactCol(&ds.Lineorder, f.Col)
	}
	fkSlices := make([][]int32, len(q.Joins))
	for i, j := range q.Joins {
		fkSlices[i] = FactCol(&ds.Lineorder, j.FactFK)
	}

	groups := map[int64]int64{}
	accs := sched.NewAccTable(st.slots(), 0)
	vals := make([]int32, len(aggCols))
	var payloads []int32
rows:
	for row := 0; row < ds.Lineorder.Rows(); row++ {
		for i := range q.FactFilters {
			if !q.FactFilters[i].Match(filterSlices[i][row]) {
				continue rows
			}
		}
		payloads = payloads[:0]
		for ji := range q.Joins {
			j := &q.Joins[ji]
			d := DimTable(ds, j.Dim)
			di, ok := dimIdx[j.Dim][fkSlices[ji][row]]
			if !ok {
				continue rows
			}
			for fi := range j.Filters {
				if !j.Filters[fi].Match(d.Col(j.Filters[fi].Col)[di]) {
					continue rows
				}
			}
			if j.Payload != "" {
				payloads = append(payloads, d.Col(j.Payload)[di])
			}
		}
		for i := range vals {
			vals[i] = aggSlices[i][row]
		}
		key := PackGroup(payloads)
		if q.Aggs != nil {
			st.update(st.at(accs, key), vals)
		} else {
			// The oracle's own evaluator: the engines' single SUMs go through
			// aggState.eval, and the differential suites check one against
			// the other.
			groups[key] += q.Agg.Eval(vals)
		}
	}
	res := &Result{Groups: groups}
	if q.Aggs != nil {
		finalizeGroups(&q, st, accs, res)
	} else if len(q.GroupPayloads()) == 0 && len(groups) == 0 {
		groups[0] = 0 // a global aggregate always yields one row
	}
	// The oracle orders with the plain sort.Slice comparator; engines order
	// with the real heap/merge/radix implementations, so the differential
	// harness compares independent orderings.
	if len(q.OrderBy) > 0 {
		res.Ordered = truncateRows(&q, orderRowsOracle(&q, resultRows(&q, res)))
	}
	return res
}
