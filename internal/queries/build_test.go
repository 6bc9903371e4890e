package queries

import (
	"math/rand"
	"reflect"
	"testing"

	"crystal/internal/crystal"
	"crystal/internal/ssb"
)

// TestBuildTablesKeepFootprint pins the dense layout to the modelled one:
// every table Compile builds for the catalog and 200 generated statements
// has exactly the Capacity and Bytes of NewHashTable at the dimension-build
// fill, which JoinTableBytes (what the planner prices) reports too; it
// holds exactly the dimension rows that pass the join's filters, slot for
// slot where NewHashTableRange over the dataset's recorded key range puts
// them. Customer, supplier and part keys are dense 1..N, the range recorded.
func TestBuildTablesKeepFootprint(t *testing.T) {
	qs := All()
	r := rand.New(rand.NewSource(3))
	for i := range 200 {
		qs = append(qs, RandomQuery(r, testDS, i, GenOptions{}))
	}
	for _, q := range qs {
		for _, b := range buildTables(testDS, q) {
			d := DimTable(testDS, b.spec.Dim)
			ref := crystal.NewHashTable(d.Rows(), dimFill, b.spec.Payload != "")
			if b.ht.Capacity() != ref.Capacity() || b.ht.Bytes() != ref.Bytes() || b.ht.Bytes() != JoinTableBytes(d, b.spec) {
				t.Fatalf("%s ⋈ %s: built %d slots / %d B, NewHashTable %d / %d, JoinTableBytes %d",
					q.ID, d.Name, b.ht.Capacity(), b.ht.Bytes(), ref.Capacity(), ref.Bytes(), JoinTableBytes(d, b.spec))
			}
			// With TestDenseSlots: every customer, supplier and part key
			// Compile inserts sits at its home slot.
			dense := crystal.NewHashTableRange(d.Rows(), dimFill, b.spec.Payload != "", d.KeyLo, d.KeyHi)
			var want int64
			for row, k := range d.Key {
				pass := true
				for _, f := range b.spec.Filters {
					pass = pass && f.Match(d.Col(f.Col)[row])
				}
				v, ok := b.ht.Get(k)
				if ok != pass || (pass && b.spec.Payload != "" && v != d.Col(b.spec.Payload)[row]) {
					t.Fatalf("%s ⋈ %s: key %d: Get = %d,%v, want present=%v", q.ID, d.Name, k, v, ok, pass)
				}
				if pass {
					want++
					v := int32(0)
					if b.spec.Payload != "" {
						v = d.Col(b.spec.Payload)[row]
					}
					dense.Put(k, v)
				}
			}
			if b.inserted != want {
				t.Fatalf("%s ⋈ %s: inserted %d rows, %d pass the filters", q.ID, d.Name, b.inserted, want)
			}
			if !reflect.DeepEqual(b.ht, dense) {
				t.Fatalf("%s ⋈ %s: built table is not the dense table over the recorded key range", q.ID, d.Name)
			}
		}
	}
	for _, name := range []string{"customer", "supplier", "part"} {
		if d := DimTable(testDS, name); d.KeyLo != 1 || int(d.KeyHi) != d.Rows() {
			t.Errorf("%s: recorded key range [%d, %d], want [1, %d]", name, d.KeyLo, d.KeyHi, d.Rows())
		}
	}
}

// TestEmptyDimensionBuild: a dimension with no rows builds the two-slot
// table NewHashTable builds for nothing, JoinTableBytes prices that table,
// and the join drops every fact row on every engine.
func TestEmptyDimensionBuild(t *testing.T) {
	ds := emptySupplierDS()
	q := Query{ID: "empty", Agg: AggSumRevenue, Joins: []JoinSpec{
		{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "region", Lo: 1, Hi: 1}}, Payload: "nation"},
	}}
	b := buildTables(ds, q)[0]
	if b.ht.Capacity() != 2 || b.ht.Bytes() != 16 || JoinTableBytes(&ds.Supplier, q.Joins[0]) != b.ht.Bytes() {
		t.Fatalf("empty supplier: built %d slots / %d B, JoinTableBytes %d, want 2 / 16",
			b.ht.Capacity(), b.ht.Bytes(), JoinTableBytes(&ds.Supplier, q.Joins[0]))
	}
	want := Reference(ds, q)
	for _, e := range Engines() {
		if got := Compile(ds, q).Run(e); !got.Equal(want) || len(got.Groups) != 0 {
			t.Errorf("%s: empty dimension join returned %d groups", e, len(got.Groups))
		}
	}
}

// emptySupplierDS is a small dataset whose supplier dimension has no rows.
func emptySupplierDS() *ssb.Dataset {
	ds := ssb.GenerateRows(4096)
	ds.Supplier = ssb.Dim{Name: "supplier", Attrs: map[string][]int32{"region": {}, "nation": {}, "city": {}}}
	return ds
}

// BenchmarkBuildTables is the per-layer benchmark of the dimension build
// Compile runs once per join: every dimension, with and without a payload
// column, unfiltered and under a filter that keeps a fifth of the rows
// (three years of seven for date). ns/dimrow is per dimension row scanned, so the four dimensions'
// figures compare directly although part has 80 times supplier's rows; B/op
// is the table itself and should not move with the filter.
func BenchmarkBuildTables(b *testing.B) {
	for _, c := range []struct {
		dim, payload string
		filter       Filter
	}{
		{"date", "year", Filter{Col: "year", Lo: 1993, Hi: 1995}},
		{"customer", "nation", Filter{Col: "region", Lo: 2, Hi: 2}},
		{"supplier", "nation", Filter{Col: "region", Lo: 1, Hi: 1}},
		{"part", "brand1", Filter{Col: "mfgr", Lo: 1, Hi: 1}},
	} {
		rows := DimTable(testDS, c.dim).Rows()
		for _, payload := range []string{"", c.payload} {
			for _, filters := range [][]Filter{nil, {c.filter}} {
				j := JoinSpec{Dim: c.dim, FactFK: dimFK[c.dim], Filters: filters, Payload: payload}
				name := c.dim + "/payload=" + map[bool]string{false: "none", true: payload}[payload != ""] +
					"/" + map[bool]string{false: "unfiltered", true: "filtered"}[filters != nil]
				q := Query{ID: "build", Joins: []JoinSpec{j}}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						buildTables(testDS, q)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/dimrow")
				})
			}
		}
	}
}
