package queries

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"crystal/internal/crystal"
	"crystal/internal/ssb"
)

// TestBuildTablesKeepFootprint pins every join Compile resolves, for the
// catalog and 200 generated statements, to the table the model prices: the
// priced bytes are NewHashTable's at the dimension-build fill, which
// JoinTableBytes (what the planner prices) reports too; inserted is the
// number of dimension rows that pass the join's filters one Match at a time;
// only a filtered join keeps a row bitmap; and probing every dimension key,
// and keys outside the range, answers as that table filled with Put does.
func TestBuildTablesKeepFootprint(t *testing.T) {
	qs := All()
	r := rand.New(rand.NewSource(3))
	for i := range 200 {
		qs = append(qs, RandomQuery(r, testDS, i, GenOptions{}))
	}
	for _, q := range qs {
		for _, b := range buildTables(testDS, q) {
			d := DimTable(testDS, b.spec.Dim)
			label := q.ID + " ⋈ " + d.Name
			ref, want := putTable(d, b.spec)
			if b.htBytes != ref.Bytes() || b.htBytes != JoinTableBytes(d, b.spec) {
				t.Fatalf("%s: priced %d B, NewHashTable %d B, JoinTableBytes %d", label, b.htBytes, ref.Bytes(), JoinTableBytes(d, b.spec))
			}
			if b.inserted != want {
				t.Fatalf("%s: inserted %d rows, %d of %d pass the filters", label, b.inserted, want, d.Rows())
			}
			if (b.pass != nil) != (len(b.spec.Filters) > 0) {
				t.Fatalf("%s: bitmap kept = %v with %d filters", label, b.pass != nil, len(b.spec.Filters))
			}
			probesAgree(t, label, &b, ref, probeKeys(d))
		}
	}
}

// putTable is the join table the model prices, built for real: the
// dimension rows passing j's filters, Put into NewHashTable at the
// dimension-build fill, and their count.
func putTable(d *ssb.Dim, j JoinSpec) (*crystal.HashTable, int64) {
	ht := crystal.NewHashTable(d.Rows(), dimFill, j.Payload != "")
	var n int64
rows:
	for row, k := range d.Key {
		for _, f := range j.Filters {
			if !f.Match(d.Col(f.Col)[row]) {
				continue rows
			}
		}
		v := int32(0)
		if j.Payload != "" {
			v = d.Col(j.Payload)[row]
		}
		ht.Put(k, v)
		n++
	}
	return ht, n
}

// probeKeys is every key of d plus keys around and far outside its range
// (never crystal.EmptyKey, which a HashTable cannot hold).
func probeKeys(d *ssb.Dim) []int32 {
	keys := append([]int32(nil), d.Key...)
	lo, hi := int32(0), int32(0)
	if len(d.Key) > 0 {
		lo, hi = d.Key[0], d.Key[0]
		for _, k := range d.Key {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	return append(keys, lo-1, hi+1, lo-64, hi+64, 0, -1, 1<<30, math.MaxInt32, math.MinInt32+1)
}

// probesAgree runs probeSel over keys and checks it keeps exactly the keys
// ref holds, with ref's payloads.
func probesAgree(t *testing.T, label string, b *buildInfo, ref *crystal.HashTable, keys []int32) {
	t.Helper()
	sel := make([]int32, len(keys))
	for i := range sel {
		sel[i] = int32(i)
	}
	var out []int32
	if b.spec.Payload != "" {
		out = make([]int32, len(keys))
	}
	kept := probeSel(b, keys, sel, out, make([]int32, len(keys)))
	for i, k := range keys {
		v, ok := ref.Get(k)
		if got := len(kept) > 0 && kept[0] == int32(i); got != ok {
			t.Fatalf("%s: key %d kept = %v, the Put table holds it = %v", label, k, got, ok)
		} else if got {
			if out != nil && out[i] != v {
				t.Fatalf("%s: key %d payload %d, the Put table's %d", label, k, out[i], v)
			}
			kept = kept[1:]
		}
	}
}

// TestDimLiteralProbes: a Dim assembled outside ssb carries no recorded
// index, so Compile indexes it on the spot — shuffled dense keys take the
// range table, a key set with one outlier the map — and every engine agrees
// with Reference; a literal whose key repeats is refused by Dim.Index with
// an error, and Compile panics with it.
func TestDimLiteralProbes(t *testing.T) {
	base := ssb.GenerateRows(8192)
	q := Query{ID: "literal", Agg: AggSumRevenue, Joins: []JoinSpec{
		{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "region", Lo: 1, Hi: 2}}, Payload: "nation"},
	}}
	perm := rand.New(rand.NewSource(5)).Perm(base.Supplier.Rows())
	literal := func(key func(int) int32) ssb.Dim {
		d := ssb.Dim{Name: "supplier", Key: make([]int32, len(perm)), Attrs: map[string][]int32{}}
		for c, col := range base.Supplier.Attrs {
			d.Attrs[c] = make([]int32, len(perm))
			for i, p := range perm {
				d.Attrs[c][i] = col[p]
			}
		}
		for i, p := range perm {
			d.Key[i] = key(p)
		}
		return d
	}
	for name, key := range map[string]func(int) int32{
		"shuffled": func(p int) int32 { return base.Supplier.Key[p] },
		"outlier": func(p int) int32 {
			if p == 0 {
				return 1 << 30
			}
			return base.Supplier.Key[p]
		},
	} {
		ds := *base
		ds.Supplier = literal(key)
		b := buildTables(&ds, q)[0]
		ref, _ := putTable(&ds.Supplier, q.Joins[0])
		probesAgree(t, name, &b, ref, probeKeys(&ds.Supplier))
		want := Reference(&ds, q)
		for _, e := range Engines() {
			if got := Compile(&ds, q).Run(e); !got.Equal(want) {
				t.Errorf("%s: %s disagrees with Reference", name, e)
			}
		}
	}

	ds := *base
	ds.Supplier = literal(func(p int) int32 { return base.Supplier.Key[p] })
	ds.Supplier.Key[1] = ds.Supplier.Key[0]
	if _, err := ds.Supplier.Index(); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("repeated key: Index error = %v", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "repeats") {
			t.Fatalf("Compile over a repeated key: recovered %v", r)
		}
	}()
	Compile(&ds, q)
}

// TestEmptyDimensionBuild: a dimension with no rows is priced as the
// two-slot table NewHashTable builds for nothing, JoinTableBytes prices that
// table, nothing is inserted, and the join drops every fact row on every
// engine.
func TestEmptyDimensionBuild(t *testing.T) {
	ds := emptySupplierDS()
	q := Query{ID: "empty", Agg: AggSumRevenue, Joins: []JoinSpec{
		{Dim: "supplier", FactFK: "suppkey", Filters: []Filter{{Col: "region", Lo: 1, Hi: 1}}, Payload: "nation"},
	}}
	b := buildTables(ds, q)[0]
	if b.htBytes != 16 || JoinTableBytes(&ds.Supplier, q.Joins[0]) != 16 || b.inserted != 0 {
		t.Fatalf("empty supplier: priced %d B, JoinTableBytes %d, inserted %d; want 16, 16, 0",
			b.htBytes, JoinTableBytes(&ds.Supplier, q.Joins[0]), b.inserted)
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

// FuzzDimFilter holds the word-at-a-time DimFilter to Filter.Match row by
// row, in bitmap and count and with a nil bitmap: row counts that are not a
// multiple of 64, ranges with Lo > Hi or at the int32 extremes, IN lists
// that are empty but non-nil or repeat a value, and several filters on one
// dimension, over a narrow column and a full-range one.
func FuzzDimFilter(f *testing.F) {
	f.Add(uint16(130), int64(1), int32(0), int32(5), int32(-2), int32(3), []byte{1, 1, 7})
	f.Add(uint16(64), int64(2), int32(9), int32(2), int32(math.MinInt32), int32(math.MaxInt32), []byte{})
	f.Add(uint16(0), int64(3), int32(1), int32(1), int32(4), int32(4), []byte{3})
	f.Add(uint16(1), int64(4), int32(-4), int32(11), int32(5), int32(5), []byte{200, 200})
	f.Fuzz(func(t *testing.T, rows uint16, seed int64, lo1, hi1, lo2, hi2 int32, in []byte) {
		n := int(rows % 1024)
		r := rand.New(rand.NewSource(seed))
		d := &ssb.Dim{Name: "fuzz", Key: make([]int32, n), Attrs: map[string][]int32{
			"narrow": make([]int32, n), "wide": make([]int32, n),
		}}
		for i := range n {
			d.Key[i] = int32(i + 1)
			d.Attrs["narrow"][i] = r.Int31n(16) - 4
			d.Attrs["wide"][i] = int32(r.Uint32())
		}
		set := make([]int32, 0, len(in)) // non-nil even when empty
		for _, b := range in {
			set = append(set, int32(b%16)-4)
		}
		for _, filters := range [][]Filter{
			nil,
			{{Col: "narrow", Lo: lo1, Hi: hi1}},
			{{Col: "wide", Lo: lo2, Hi: hi2}},
			{{Col: "narrow", In: set}},
			{{Col: "narrow", Lo: lo1, Hi: hi1}, {Col: "narrow", In: set}},
			{{Col: "wide", Lo: lo2, Hi: hi1}, {Col: "narrow", Lo: lo2, Hi: hi2}, {Col: "narrow", In: set}},
		} {
			pass := make([]uint64, (n+63)/64)
			for w := range pass {
				pass[w] = 0xdead // DimFilter must overwrite every word
			}
			got := DimFilter(d, filters, pass)
			want := 0
			for row := range n {
				keep := true
				for _, f := range filters {
					keep = keep && f.Match(d.Col(f.Col)[row])
				}
				if bit := pass[row/64]>>(row%64)&1 == 1; bit != keep {
					t.Fatalf("%d rows, %+v: row %d bit %v, Match %v", n, filters, row, bit, keep)
				}
				want += btoi(keep)
			}
			if n%64 != 0 && pass[n/64]>>(n%64) != 0 {
				t.Fatalf("%d rows, %+v: bits set past the last row: %#x", n, filters, pass[n/64])
			}
			if got != want || DimFilter(d, filters, nil) != want {
				t.Fatalf("%d rows, %+v: count %d (nil bitmap %d), Match keeps %d", n, filters, got, DimFilter(d, filters, nil), want)
			}
		}
	})
}

// TestDimFilterCountAllocatesNothing: the planner's selectivity pass is
// DimFilter without a bitmap, and it allocates nothing.
func TestDimFilterCountAllocatesNothing(t *testing.T) {
	q, _ := ByID("q4.3")
	for _, j := range q.Joins {
		d := DimTable(testDS, j.Dim)
		if a := testing.AllocsPerRun(10, func() { DimFilter(d, j.Filters, nil) }); a != 0 {
			t.Errorf("%s: %v allocs per count", j.Dim, a)
		}
	}
}

// BenchmarkBuildTables is the per-layer benchmark of the join resolution
// Compile runs once per join: every dimension, with and without a payload
// column, unfiltered and under a filter that keeps a fifth of the rows
// (three years of seven for date). ns/dimrow is per dimension row, so the
// four dimensions' figures compare directly although part has 80 times
// supplier's rows; B/op is the filtered join's row bitmap (a bit a row),
// and an unfiltered join allocates none.
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
