package ssb

import (
	"reflect"
	"sync"
	"testing"
)

func TestPartitionCoversAllRowsAligned(t *testing.T) {
	ds := GenerateRows(100_000) // not a multiple of MorselAlign
	for _, n := range []int{-3, 0, 1, 2, 7, 16, 64, 1000} {
		ms := ds.Partition(n)
		if len(ms) == 0 {
			t.Fatalf("Partition(%d) returned no morsels", n)
		}
		want := n
		if want < 1 {
			want = 1
		}
		if tiles := (ds.Lineorder.Rows() + MorselAlign - 1) / MorselAlign; want > tiles {
			want = tiles
		}
		if len(ms) != want {
			t.Errorf("Partition(%d) = %d morsels, want %d", n, len(ms), want)
		}
		next := 0
		for i, m := range ms {
			if m.Lo != next {
				t.Fatalf("Partition(%d) morsel %d starts at %d, want %d", n, i, m.Lo, next)
			}
			if m.Lo%MorselAlign != 0 {
				t.Fatalf("Partition(%d) morsel %d boundary %d not aligned", n, i, m.Lo)
			}
			if m.Rows() <= 0 {
				t.Fatalf("Partition(%d) morsel %d empty [%d,%d)", n, i, m.Lo, m.Hi)
			}
			next = m.Hi
		}
		if next != ds.Lineorder.Rows() {
			t.Fatalf("Partition(%d) covers %d rows, want %d", n, next, ds.Lineorder.Rows())
		}
	}
}

func TestPartitionTinyAndEmpty(t *testing.T) {
	one := GenerateRows(1)
	ms := one.Partition(64)
	if len(ms) != 1 || ms[0].Lo != 0 || ms[0].Hi != 1 {
		t.Errorf("1-row Partition(64) = %+v", ms)
	}
	empty := &Dataset{}
	if got := empty.Partition(4); got != nil {
		t.Errorf("empty dataset Partition = %v, want nil", got)
	}
}

func TestZoneMapsMatchBruteForce(t *testing.T) {
	ds := GenerateRows(30_000)
	for _, m := range ds.Partition(7) {
		for _, name := range FactColumns() {
			col := ds.Lineorder.Col(name)[m.Lo:m.Hi]
			min, max := col[0], col[0]
			for _, v := range col {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
			z, ok := m.Zones[name]
			if !ok {
				t.Fatalf("morsel [%d,%d) missing zone for %s", m.Lo, m.Hi, name)
			}
			if z.Min != min || z.Max != max {
				t.Errorf("zone %s [%d,%d) = [%d,%d], want [%d,%d]", name, m.Lo, m.Hi, z.Min, z.Max, min, max)
			}
		}
	}
}

// directPartition is Partition as it was before zones were kept per tile:
// the boundaries from the count, then one min/max scan per morsel and column.
func directPartition(ds *Dataset, n int) []Morsel {
	rows := ds.Lineorder.Rows()
	tiles := (rows + MorselAlign - 1) / MorselAlign
	n = EffectivePartitions(rows, n)
	var out []Morsel
	for i := 0; i < n; i++ {
		lo, hi := (i*tiles/n)*MorselAlign, ((i+1)*tiles/n)*MorselAlign
		if hi > rows || i == n-1 {
			hi = rows
		}
		zones := map[string]Zone{}
		for _, name := range FactColumns() {
			z := Zone{Min: ds.Lineorder.Col(name)[lo], Max: ds.Lineorder.Col(name)[lo]}
			for _, v := range ds.Lineorder.Col(name)[lo:hi] {
				z.Min, z.Max = min(z.Min, v), max(z.Max, v)
			}
			zones[name] = z
		}
		out = append(out, Morsel{Lo: lo, Hi: hi, Zones: zones})
	}
	return out
}

// TestPartitionFromTiles pins that morsel zones assembled from the per-tile
// zones a fact table computes once equal a direct scan of each morsel, on
// every layout that carries its own zones — and that a layout derived from a
// table whose zones are already built starts from fresh ones.
func TestPartitionFromTiles(t *testing.T) {
	gen := GenerateRows(5*MorselAlign + 777)
	gen.Partition(3) // the parent's zones exist before the copies are taken
	tiles := 6
	layouts := map[string]*Dataset{
		"generated": gen,
		"clustered": gen.ClusterBy("orderdate"),
		"sliced":    gen.SliceFact(MorselAlign, 4*MorselAlign+5),
		"uncached":  {Lineorder: gen.Lineorder},
	}
	for name, ds := range layouts {
		var wg sync.WaitGroup
		for n := 1; n <= 4; n++ { // the first requests race for the tile scan
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				ds.Partition(n)
			}(n)
		}
		wg.Wait()
		for _, n := range []int{1, 2, 7, 16, 64, tiles, tiles + 5} {
			got, want := ds.Partition(n), directPartition(ds, n)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Partition(%d) = %+v, want %+v", name, n, got, want)
			}
			if again := ds.Partition(n); ds.zones != nil && &again[0] != &got[0] {
				t.Errorf("%s: Partition(%d) is not memoised", name, n)
			}
		}
		if ds.zones != nil && len(ds.zones.parts) > tiles {
			t.Errorf("%s: %d morsel maps cached, want at most one per tile (%d)", name, len(ds.zones.parts), tiles)
		}
	}
	if z := layouts["clustered"].Partition(6)[0].Zones["orderdate"]; z == gen.Partition(6)[0].Zones["orderdate"] {
		t.Errorf("the clustered copy serves its parent's zones: first morsel orderdate %+v", z)
	}
}

func TestZoneContainsOverlaps(t *testing.T) {
	z := Zone{Min: 10, Max: 20}
	if !z.Contains(10) || !z.Contains(20) || z.Contains(9) || z.Contains(21) {
		t.Error("Contains wrong")
	}
	if !z.Overlaps(0, 10) || !z.Overlaps(20, 99) || !z.Overlaps(12, 13) || !z.Overlaps(0, 99) {
		t.Error("Overlaps should intersect")
	}
	if z.Overlaps(0, 9) || z.Overlaps(21, 99) {
		t.Error("Overlaps should miss disjoint ranges")
	}
}

func TestClusterBySortsAndPreservesRows(t *testing.T) {
	ds := GenerateRows(20_000)
	cl := ds.ClusterBy("orderdate")
	if cl.Lineorder.Rows() != ds.Lineorder.Rows() {
		t.Fatalf("clustered rows = %d, want %d", cl.Lineorder.Rows(), ds.Lineorder.Rows())
	}
	// Sorted by the cluster column.
	od := cl.Lineorder.OrderDate
	for i := 1; i < len(od); i++ {
		if od[i-1] > od[i] {
			t.Fatalf("not sorted at %d: %d > %d", i, od[i-1], od[i])
		}
	}
	// Rows are permuted, not rewritten: per-column sums must match.
	for _, name := range FactColumns() {
		var a, b int64
		for _, v := range ds.Lineorder.Col(name) {
			a += int64(v)
		}
		for _, v := range cl.Lineorder.Col(name) {
			b += int64(v)
		}
		if a != b {
			t.Errorf("column %s sum changed: %d != %d", name, a, b)
		}
	}
	// Row integrity: revenue must still derive from extprice and discount.
	l := &cl.Lineorder
	for i := 0; i < l.Rows(); i += 97 {
		if l.Revenue[i] != l.ExtPrice[i]*(100-l.Discount[i])/100 {
			t.Fatalf("row %d broken after clustering", i)
		}
	}
	// Dimension columns are shared, not copied.
	if &cl.Date.Key[0] != &ds.Date.Key[0] || &cl.Customer.Key[0] != &ds.Customer.Key[0] {
		t.Error("dimensions should be shared with the original dataset")
	}
	// Clustered zone maps actually narrow: first morsel's orderdate zone
	// must span far less than the full domain.
	ms := cl.Partition(8)
	z := ms[0].Zones["orderdate"]
	full := Zone{Min: 19920101, Max: 19981231}
	if int64(z.Max-z.Min) >= int64(full.Max-full.Min)/2 {
		t.Errorf("clustered first-morsel zone [%d,%d] spans too much", z.Min, z.Max)
	}
}

func TestFactColumnsAndColAgree(t *testing.T) {
	ds := GenerateRows(16)
	if len(FactColumns()) != 9 {
		t.Fatalf("FactColumns = %d entries", len(FactColumns()))
	}
	for _, name := range FactColumns() {
		if ds.Lineorder.Col(name) == nil {
			t.Errorf("Col(%s) nil", name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Col should panic on unknown column")
			}
		}()
		ds.Lineorder.Col("bogus")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ClusterBy should panic on unknown column")
			}
		}()
		ds.ClusterBy("bogus")
	}()
}
