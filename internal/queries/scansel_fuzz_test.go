package queries

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"crystal/internal/ssb"
)

// FuzzScanSel holds the predicated compaction loops to their row-at-a-time
// definitions over selection vectors with gaps. filterSel keeps, in order,
// exactly the rows Filter.Match keeps: ranges with Lo > Hi or at the int32
// extremes, and nil, empty non-nil and repeating IN lists. probeSel keeps,
// in order, exactly the rows whose key KeyIndex.Row finds and whose bit the
// join's bitmap sets (any row, for a nil bitmap), writes each kept row's
// payload at its row of out and leaves every other row of out alone: over
// identity, range-table and map indexes (absent keys and keys at the int32
// extremes included), with and without a payload, and over an empty
// dimension whose bitmap is zero-length but non-nil.
func FuzzScanSel(f *testing.F) {
	f.Add(uint16(300), uint16(40), int64(1), int32(1), int32(3), int32(1), []byte{1, 2, 3})
	f.Add(uint16(2048), uint16(0), int64(2), int32(5), int32(2), int32(math.MaxInt32-10), []byte{})
	f.Add(uint16(7), uint16(1), int64(3), int32(math.MinInt32), int32(math.MaxInt32), int32(math.MinInt32), []byte{4, 4, 4})
	f.Add(uint16(1), uint16(2), int64(4), int32(0), int32(0), int32(-3), []byte{200})
	f.Fuzz(func(t *testing.T, tile, dimRows uint16, seed int64, lo, hi, base int32, in []byte) {
		n, d := int(tile%2049), int(dimRows%700)
		r := rand.New(rand.NewSource(seed))
		sel := make([]int32, 0, n) // a gapped, ascending selection vector
		for i := range n {
			if r.Intn(4) != 0 {
				sel = append(sel, int32(i))
			}
		}

		vals := make([]int32, n)
		for i := range vals {
			if r.Intn(2) == 0 {
				vals[i] = r.Int31n(16) - 4
			} else {
				vals[i] = int32(r.Uint32())
			}
		}
		set := make([]int32, 0, len(in)) // non-nil even when empty
		for _, b := range in {
			set = append(set, int32(b%16)-4)
		}
		for _, flt := range []Filter{
			{Lo: lo, Hi: hi}, {Lo: hi, Hi: lo}, {Lo: math.MinInt32, Hi: hi}, {Lo: lo, Hi: math.MaxInt32},
			{In: set}, {In: append(set, set...)}, {In: []int32{}},
		} {
			var want []int32
			for _, i := range sel {
				if flt.Match(vals[i]) {
					want = append(want, i)
				}
			}
			if got := filterSel(&flt, vals, slices.Clone(sel)); !slices.Equal(got, want) {
				t.Fatalf("filter %+v over %d rows: kept %d rows, Match keeps %d (first differing at %d)", flt, n, len(got), len(want), firstDiff(got, want))
			}
		}

		for _, form := range []string{"identity", "table", "map"} {
			dim := scanSelDim(r, form, d, base)
			x, err := dim.Index()
			if err != nil {
				t.Fatalf("%s dimension: %v", form, err)
			}
			if _, _, ok := x.Identity(); ok != (form == "identity" || d < 2) {
				t.Fatalf("%s dimension of %d keys from %d: Identity() = %v", form, d, base, ok)
			}
			keys := make([]int32, n)
			for i := range keys {
				switch c := r.Intn(8); {
				case d > 0 && c < 5:
					keys[i] = dim.Key[r.Intn(d)]
				case c == 5:
					keys[i] = [...]int32{math.MinInt32, math.MaxInt32, 0, -1}[r.Intn(4)]
				case c == 6 && d > 0:
					keys[i] = dim.Key[r.Intn(d)] + int32(r.Intn(5)) - 2 // beside a key, often absent
				default:
					keys[i] = int32(r.Uint32())
				}
			}
			bitmap := make([]uint64, (d+63)/64) // non-nil, zero-length for an empty dimension
			for row := range d {
				if r.Intn(3) != 0 {
					bitmap[row/64] |= 1 << (row % 64)
				}
			}
			payload := dim.Key // any column of d rows
			for _, pass := range [][]uint64{nil, bitmap} {
				for _, withPayload := range []bool{false, true} {
					b := &buildInfo{index: x, pass: pass}
					var out []int32
					if withPayload {
						b.payload = payload
						out = make([]int32, n)
						for i := range out {
							out[i] = -7
						}
					}
					var want []int32
					for _, i := range sel {
						if row := x.Row(keys[i]); row >= 0 && (pass == nil || pass[row/64]>>(row%64)&1 == 1) {
							want = append(want, i)
						}
					}
					got := probeSel(b, keys, slices.Clone(sel), out, make([]int32, n))
					if !slices.Equal(got, want) {
						t.Fatalf("%s index of %d rows, bitmap %v, payload %v: kept %d rows, want %d (first differing at %d)",
							form, d, pass != nil, withPayload, len(got), len(want), firstDiff(got, want))
					}
					for i := range out {
						w := int32(-7)
						if _, kept := slices.BinarySearch(want, int32(i)); kept {
							w = payload[x.Row(keys[i])]
						}
						if out[i] != w {
							t.Fatalf("%s index of %d rows, bitmap %v: out[%d] = %d, want %d", form, d, pass != nil, i, out[i], w)
						}
					}
				}
			}
		}
	})
}

// firstDiff is the first position at which two selection vectors differ.
func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// scanSelDim is a dimension of n rows whose keys take the given index form:
// base, base+1, ... (wrapping at the int32 extremes) for identity, a
// shuffled range with gaps for table (a map when the range wraps), and
// distinct random keys plus the int32 extremes for map. Fewer than two keys
// always index as an identity.
func scanSelDim(r *rand.Rand, form string, n int, base int32) *ssb.Dim {
	d := &ssb.Dim{Name: "fuzz", Key: make([]int32, n), Attrs: map[string][]int32{}}
	switch form {
	case "identity":
		for i := range d.Key {
			d.Key[i] = base + int32(i)
		}
	case "table":
		for i := range d.Key {
			d.Key[i] = base + 3*int32(i)
		}
		r.Shuffle(len(d.Key), func(i, j int) { d.Key[i], d.Key[j] = d.Key[j], d.Key[i] })
	default:
		seen := map[int32]bool{}
		d.Key = d.Key[:0]
		for _, k := range []int32{math.MinInt32, math.MaxInt32} {
			if n >= 2 {
				d.Key, seen[k] = append(d.Key, k), true
			}
		}
		for len(d.Key) < n {
			if k := int32(r.Uint32()); !seen[k] {
				d.Key, seen[k] = append(d.Key, k), true
			}
		}
	}
	return d
}
