package ssb

import (
	"fmt"
	"sort"
	"sync"
)

// MorselAlign is the row quantum morsel boundaries snap to. It equals the
// tile size of the GPU kernels (thread block 256 x 8 items per thread) and
// is a multiple of every DRAM line the device models use (16 rows per 64 B
// line, 32 per 128 B line), so a morsel boundary never splits a tile or a
// cache line. That alignment is what makes partitioned execution exact:
// per-morsel traffic statistics sum to precisely the monolithic pass's
// statistics, so simulated seconds are identical for every partition count
// (until zone maps start pruning, which only makes runs cheaper).
const MorselAlign = 2048

// Zone is the inclusive [Min, Max] value range one fact column takes within
// a morsel — the classic zone-map (small materialized aggregate) entry.
type Zone struct {
	Min, Max int32
}

// Contains reports whether v lies inside the zone.
func (z Zone) Contains(v int32) bool { return z.Min <= v && v <= z.Max }

// Overlaps reports whether the zone intersects the inclusive range [lo, hi].
func (z Zone) Overlaps(lo, hi int32) bool { return lo <= z.Max && hi >= z.Min }

// Morsel is one horizontal partition of the fact table: the row range
// [Lo, Hi) plus a zone map over every fact column. A query skips the morsel
// entirely when some filter cannot match its zone; Zones may be nil (an
// unmapped morsel), which disables pruning for it.
type Morsel struct {
	Lo, Hi int
	Zones  map[string]Zone
}

// Rows returns the number of fact rows in the morsel.
func (m Morsel) Rows() int { return m.Hi - m.Lo }

// FactColumns lists the fact-table column names in storage order.
func FactColumns() []string {
	return []string{
		"orderdate", "custkey", "partkey", "suppkey",
		"quantity", "discount", "extprice", "revenue", "supplycost",
	}
}

// Col returns the named fact column, panicking on unknown names so
// query-plan typos fail loudly (mirrors Dim.Col).
func (l *Lineorder) Col(name string) []int32 {
	switch name {
	case "orderdate":
		return l.OrderDate
	case "custkey":
		return l.CustKey
	case "partkey":
		return l.PartKey
	case "suppkey":
		return l.SuppKey
	case "quantity":
		return l.Quantity
	case "discount":
		return l.Discount
	case "extprice":
		return l.ExtPrice
	case "revenue":
		return l.Revenue
	case "supplycost":
		return l.SupplyCost
	}
	panic(fmt.Sprintf("ssb: unknown fact column %q", name))
}

// EffectivePartitions returns the morsel count Partition(n) actually
// produces for a fact table of the given rows: at least one, at most one
// per MorselAlign tile, zero only for an empty table. Layers that key
// state by shard shape (result caches, residency pins) normalize through
// it so they can never disagree with the shard map that executes.
func EffectivePartitions(rows, n int) int {
	if rows == 0 {
		return 0
	}
	if n < 1 {
		n = 1
	}
	if tiles := (rows + MorselAlign - 1) / MorselAlign; n > tiles {
		n = tiles
	}
	return n
}

// factZones is the zone-map state of one fact-table layout: the per-tile
// (MorselAlign) zones, computed by the first Partition call, and the morsel
// maps derived from them, memoised by effective count. Morsel boundaries are
// tile-aligned, so any morsel's zone is the envelope of its tiles' and the
// nine fact columns are scanned once per fact table — not once per plan and
// partition count.
//
// A Dataset holds it by pointer so that the by-value copies SliceFact and
// ClusterBy take can be given a fresh one: zones describe a layout, and a
// copied pointer would serve another layout's.
type factZones struct {
	mu    sync.Mutex
	tiles []Zone // tile-major: tile t, column c of FactColumns at t*len(FactColumns())+c
	parts map[int][]Morsel
}

// Partition splits the fact table into at most n morsels with zone maps.
// Boundaries snap to MorselAlign, so morsels are balanced to within one
// quantum, cover every row exactly once, and requesting more morsels than
// aligned chunks simply yields fewer (never empty) morsels. n < 1 is
// treated as 1.
//
// On a dataset from Generate, GenerateRows, Read, SliceFact or ClusterBy the
// result is memoised by effective count and shared between callers: treat the
// slice, its morsels and their Zones maps as read-only, and do not write to a
// fact column once the table has been partitioned. A zero-value Dataset has
// no cache and computes its zones directly.
func (ds *Dataset) Partition(n int) []Morsel {
	rows := ds.Lineorder.Rows()
	n = EffectivePartitions(rows, n)
	if n == 0 {
		return nil
	}
	fz := ds.zones
	if fz == nil {
		return partition(rows, n, tileZones(&ds.Lineorder))
	}
	fz.mu.Lock()
	defer fz.mu.Unlock()
	ms, ok := fz.parts[n]
	if !ok {
		if fz.tiles == nil {
			fz.tiles = tileZones(&ds.Lineorder)
			fz.parts = map[int][]Morsel{}
		}
		ms = partition(rows, n, fz.tiles)
		fz.parts[n] = ms
	}
	return ms
}

// partition lays n morsels over rows and gives each the envelope of its
// tiles' zones (tz, laid out as factZones.tiles).
func partition(rows, n int, tz []Zone) []Morsel {
	names := FactColumns()
	tiles := (rows + MorselAlign - 1) / MorselAlign
	out := make([]Morsel, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*tiles/n, (i+1)*tiles/n
		if lo >= hi {
			continue
		}
		zones := make(map[string]Zone, len(names))
		for c, name := range names {
			z := tz[lo*len(names)+c]
			for t := lo + 1; t < hi; t++ {
				z.Min = min(z.Min, tz[t*len(names)+c].Min)
				z.Max = max(z.Max, tz[t*len(names)+c].Max)
			}
			zones[name] = z
		}
		out = append(out, Morsel{Lo: lo * MorselAlign, Hi: min(hi*MorselAlign, rows), Zones: zones})
	}
	return out
}

// tileZones scans every fact column once and returns the zone of each
// MorselAlign tile (the last may be partial), laid out as factZones.tiles.
func tileZones(l *Lineorder) []Zone {
	names := FactColumns()
	rows := l.Rows()
	tiles := (rows + MorselAlign - 1) / MorselAlign
	out := make([]Zone, tiles*len(names))
	for c, name := range names {
		col := l.Col(name)
		for t := 0; t < tiles; t++ {
			out[t*len(names)+c] = zoneMap(col[t*MorselAlign : min((t+1)*MorselAlign, rows)])
		}
	}
	return out
}

// zoneMap computes the min/max of a non-empty run of column values.
func zoneMap(col []int32) Zone {
	z := Zone{Min: col[0], Max: col[0]}
	for _, v := range col[1:] {
		if v < z.Min {
			z.Min = v
		}
		if v > z.Max {
			z.Max = v
		}
	}
	return z
}

// ClusterBy returns a copy of the dataset whose fact table is stably sorted
// by the named fact column; dimension tables are shared. On a clustered
// layout each morsel's zone for the sort column is a narrow, nearly
// disjoint interval, which is what gives zone maps their pruning power —
// the uniform generated layout leaves every zone spanning the full domain,
// so nothing prunes and partitioned runs cost exactly the monolithic time.
func (ds *Dataset) ClusterBy(col string) *Dataset {
	l := &ds.Lineorder
	key := l.Col(col)
	perm := make([]int, l.Rows())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return key[perm[a]] < key[perm[b]] })

	out := *ds
	out.zones = new(factZones) // a new layout: the parent's zones do not describe it
	out.Lineorder = Lineorder{}
	for _, name := range FactColumns() {
		src := l.Col(name)
		dst := make([]int32, len(src))
		for i, p := range perm {
			dst[i] = src[p]
		}
		out.Lineorder.setCol(name, dst)
	}
	return &out
}

// setCol stores the named fact column — the write-side mirror of Col, with
// the same panic on unknown names so a column added to FactColumns but
// missed here fails loudly instead of silently dropping data.
func (l *Lineorder) setCol(name string, col []int32) {
	switch name {
	case "orderdate":
		l.OrderDate = col
	case "custkey":
		l.CustKey = col
	case "partkey":
		l.PartKey = col
	case "suppkey":
		l.SuppKey = col
	case "quantity":
		l.Quantity = col
	case "discount":
		l.Discount = col
	case "extprice":
		l.ExtPrice = col
	case "revenue":
		l.Revenue = col
	case "supplycost":
		l.SupplyCost = col
	default:
		panic(fmt.Sprintf("ssb: unknown fact column %q", name))
	}
}
