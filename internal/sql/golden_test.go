package sql

import (
	"testing"

	"crystal/internal/device"
	"crystal/internal/planner"
	"crystal/internal/queries"
	"crystal/internal/ssb"
)

var goldenDS = ssb.GenerateRows(60_000)

// TestThirteenQueriesRoundTripThroughSQL is the tentpole golden test: every
// built-in SSB query, rendered as SQL by Describe, must parse, bind to the
// hand-built definition modulo the binder's filter-order normalization, and
// produce row-identical results on all six engines. Where the hand-tuned
// filter order is already canonical (everything but flight 1), the bound
// query must also match second-for-second.
func TestThirteenQueriesRoundTripThroughSQL(t *testing.T) {
	for _, hand := range queries.All() {
		stmt := hand.Describe()
		bound, err := Compile(stmt)
		if err != nil {
			t.Errorf("%s: Describe output does not compile: %v\n%s", hand.ID, err, stmt)
			continue
		}
		norm := normalizeHand(hand)
		if got, want := bound.Canonical(), norm.Canonical(); got != want {
			t.Errorf("%s: canonical forms differ\n  sql:  %s\n  hand: %s", hand.ID, got, want)
			continue
		}
		physEqual := bound.Canonical() == hand.Canonical()
		for _, e := range queries.Engines() {
			want := queries.Compile(goldenDS, hand).Run(e)
			got := queries.Compile(goldenDS, bound).Run(e)
			if !got.Equal(want) {
				t.Errorf("%s on %s: SQL-bound rows differ from hand-built", hand.ID, e)
			}
			if physEqual && got.Seconds != want.Seconds {
				t.Errorf("%s on %s: SQL-bound simulated %.9fs, hand-built %.9fs", hand.ID, e, got.Seconds, want.Seconds)
			}
		}
	}
}

// normalizeHand applies the binder's filter-order normalization to a
// catalog query (on deep copies; the catalog's own order is untouched).
func normalizeHand(q queries.Query) queries.Query {
	copyFilters := func(fs []queries.Filter) []queries.Filter {
		out := append([]queries.Filter(nil), fs...)
		for i := range out {
			out[i].In = append([]int32(nil), out[i].In...)
		}
		return out
	}
	q.FactFilters = sortFilters(copyFilters(q.FactFilters))
	q.Joins = append([]queries.JoinSpec(nil), q.Joins...)
	for i := range q.Joins {
		q.Joins[i].Filters = sortFilters(copyFilters(q.Joins[i].Filters))
	}
	return q
}

// TestAdhocQueryRunsEverywhere compiles a query that is NOT one of the 13
// SSB definitions and checks all engines agree with the row-at-a-time
// reference — the point of the frontend.
func TestAdhocQueryRunsEverywhere(t *testing.T) {
	q := mustCompile(t, `SELECT SUM(lo.revenue), supplier.nation, date.year
		FROM lineorder, supplier, date
		WHERE lo.suppkey = supplier.key AND supplier.region = 'EUROPE'
		  AND lo.orderdate = date.key AND date.year BETWEEN 1995 AND 1996
		  AND lo.quantity > 40
		GROUP BY supplier.nation, date.year`)
	want := queries.Reference(goldenDS, q)
	if len(want.Groups) == 0 {
		t.Fatal("ad-hoc query selected no rows; pick a wider predicate")
	}
	for _, e := range queries.Engines() {
		got := queries.Compile(goldenDS, q).Run(e)
		if !got.Equal(want) {
			t.Errorf("%s disagrees with reference on ad-hoc query", e)
		}
	}
	// Payloads decode through the bound query like any catalog query.
	rows := q.DecodeRows(queries.Compile(goldenDS, q).Run(queries.EngineGPU))
	for _, r := range rows {
		if len(r.Labels) != 2 {
			t.Fatalf("decoded row labels = %v", r.Labels)
		}
	}
}

// TestOptimizeGroupedPreservesRows reorders an ad-hoc query's joins with
// the cost-based planner and checks the rows (and packed keys) survive.
func TestOptimizeGroupedPreservesRows(t *testing.T) {
	q := mustCompile(t, `SELECT SUM(revenue), date.year
		FROM lineorder, date, part, supplier
		WHERE orderdate = date.key AND partkey = part.key AND suppkey = supplier.key
		  AND part.category = 'MFGR#12' AND supplier.region = 'AMERICA'
		GROUP BY date.year`)
	want := queries.Reference(goldenDS, q)
	for _, dev := range []*device.Spec{device.V100(), device.I76900()} {
		opt := planner.OptimizeGrouped(dev, goldenDS, q)
		got := queries.Compile(goldenDS, opt).Run(queries.EngineGPU)
		if !got.Equal(want) {
			t.Errorf("%s: optimized join order changed the result rows", dev.Name)
		}
	}
}

// TestReadmeSpellingsMatchCatalog pins the README's SSB-style renderings
// of q1.1, q2.1, q3.1 and q4.1 to the hand-built definitions: identical
// result rows (packed keys included). Canonical forms can differ where the
// SSB text uses open-ended ranges (q1.1's lo_quantity < 25) against the
// catalog's closed ones, so row identity is the contract here; exact
// canonical equality for Describe renderings is covered above.
func TestReadmeSpellingsMatchCatalog(t *testing.T) {
	spellings := map[string]string{
		"q1.1": `SELECT SUM(lo_extendedprice * lo_discount) FROM lineorder
			WHERE lo_orderdate BETWEEN 19930101 AND 19931231
			  AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25`,
		"q2.1": `SELECT SUM(lo_revenue), p_brand1, d_year
			FROM lineorder, supplier, part, date
			WHERE lo_suppkey = s_suppkey AND s_region = 'AMERICA'
			  AND lo_partkey = p_partkey AND p_category = 'MFGR#12'
			  AND lo_orderdate = d_datekey
			GROUP BY p_brand1, d_year`,
		"q3.1": `SELECT SUM(lo_revenue), c_nation, s_nation, d_year
			FROM lineorder, customer, supplier, date
			WHERE lo_custkey = c_custkey AND c_region = 'ASIA'
			  AND lo_suppkey = s_suppkey AND s_region = 'ASIA'
			  AND lo_orderdate = d_datekey AND d_year BETWEEN 1992 AND 1997
			GROUP BY c_nation, s_nation, d_year`,
		"q4.1": `SELECT SUM(lo_revenue - lo_supplycost), c_nation, d_year
			FROM lineorder, supplier, customer, part, date
			WHERE lo_suppkey = s_suppkey AND s_region = 'AMERICA'
			  AND lo_custkey = c_custkey AND c_region = 'AMERICA'
			  AND lo_partkey = p_partkey AND p_mfgr BETWEEN 'MFGR#1' AND 'MFGR#2'
			  AND lo_orderdate = d_datekey
			GROUP BY c_nation, d_year`,
	}
	for id, stmt := range spellings {
		hand, err := queries.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		bound := mustCompile(t, stmt)
		want := queries.Reference(goldenDS, hand)
		got := queries.Reference(goldenDS, bound)
		if !got.Equal(want) {
			t.Errorf("%s: README spelling produces different rows than the catalog query", id)
		}
	}
}
