package queries

import (
	"math"
	"math/rand"
	"testing"

	"crystal/internal/device"
	"crystal/internal/gpu"
)

// sortTestQuery builds a query shape for the sort-algorithm property tests:
// two group payloads (so Group order keys have two slots to unpack) and two
// aggregates (so Item order keys have two values to compare).
func sortTestQuery(keys []OrderKey, limit int) Query {
	return Query{
		ID:      "sorttest",
		Joins:   []JoinSpec{{Dim: "date", Payload: "year"}, {Dim: "part", Payload: "brand1"}},
		Aggs:    []AggSpec{{Func: FuncSum}, {Func: FuncMax}},
		OrderBy: keys,
		Limit:   limit,
	}
}

// randomSortRows draws n result rows with deliberately small value domains,
// so every ordering has heavy ties and the tests exercise the key-cascade
// and the packed-key tie-break.
func randomSortRows(r *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	seen := map[int64]bool{}
	for i := range rows {
		var key int64
		for {
			key = PackGroup([]int32{int32(r.Intn(6)), int32(r.Intn(50))})
			if !seen[key] {
				seen[key] = true
				break
			}
		}
		rows[i] = Row{Key: key, Vals: []int64{int64(r.Intn(5) - 2), int64(r.Intn(1000))}}
	}
	return rows
}

// randomOrderKeys draws 1-2 order keys over the two aggregates and the two
// group slots of sortTestQuery.
func randomOrderKeys(r *rand.Rand) []OrderKey {
	keys := make([]OrderKey, 1+r.Intn(2))
	for i := range keys {
		k := OrderKey{Desc: r.Intn(2) == 0}
		if r.Intn(2) == 0 {
			k.Item = r.Intn(2)
		} else {
			k.Item, k.Group = -1, r.Intn(2)
		}
		keys[i] = k
	}
	return keys
}

// TestMergeSortMatchesOracle: the bottom-up merge sort must reproduce the
// comparator-defined total order exactly, for every size and key shape.
func TestMergeSortMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 64, 257} {
		for trial := 0; trial < 20; trial++ {
			q := sortTestQuery(randomOrderKeys(r), 0)
			rows := randomSortRows(r, n)
			want := orderRowsOracle(&q, rows)
			got, passes := mergeSortRows(&q, rows)
			for i := range want {
				if got[i].Key != want[i].Key {
					t.Fatalf("n=%d trial=%d keys=%v: row %d is %d, want %d", n, trial, q.OrderBy, i, got[i].Key, want[i].Key)
				}
			}
			if n > 1 && passes <= 0 {
				t.Fatalf("n=%d: merge sort reported %d passes", n, passes)
			}
		}
	}
}

// TestHeapTopNMatchesOracle: the bounded heap must return exactly the first
// k rows of the full sort — the top-N ≡ sort-then-truncate property.
func TestHeapTopNMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 33, 128} {
		for _, k := range []int{0, 1, 2, 7, n, n + 3} {
			q := sortTestQuery(randomOrderKeys(r), k)
			rows := randomSortRows(r, n)
			want := orderRowsOracle(&q, rows)
			if k > 0 && k < len(want) {
				want = want[:k]
			}
			got := heapTopN(&q, rows, k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: got %d rows, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key {
					t.Fatalf("n=%d k=%d keys=%v: row %d is %d, want %d", n, k, q.OrderBy, i, got[i].Key, want[i].Key)
				}
			}
		}
	}
}

// TestRadixSortRowsMatchesOracle: the GPU per-key LSD radix sort must land
// on the same total order as the comparator oracle (its per-key stability is
// what makes the key cascade correct).
func TestRadixSortRowsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	charged := false
	for _, n := range []int{0, 1, 2, 65, 300} {
		for trial := 0; trial < 10; trial++ {
			q := sortTestQuery(randomOrderKeys(r), 0)
			rows := randomSortRows(r, n)
			// The radix cascade assumes the base packed-key order, exactly as
			// executeSort receives it from resultRows.
			base, _ := mergeSortRows(&Query{}, rows) // no keys: packed-key ascending
			want := orderRowsOracle(&q, rows)
			var o sortOutcome
			got := deviceSort(&q, device.V100(), base, &o)
			for i := range want {
				if got[i].Key != want[i].Key {
					t.Fatalf("n=%d trial=%d keys=%v: row %d is %d, want %d", n, trial, q.OrderBy, i, got[i].Key, want[i].Key)
				}
			}
			// All rows can tie on every drawn key (width 0: no passes, no
			// traffic), so time is only required across the whole run.
			if o.seconds > 0 {
				charged = true
			}
		}
	}
	if !charged {
		t.Error("no radix sort trial charged any simulated time")
	}
}

// TestRadixSortCostIsTheExecutedSort: the planner's GPU sort price is the
// simulated seconds the executed LSD sort charges for one ORDER BY key, bit
// for bit, across grid sizes (one block to 35) and pass counts (1 to 6).
func TestRadixSortCostIsTheExecutedSort(t *testing.T) {
	dev := device.V100()
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 100, 513, 4096, 70000} {
		for _, w := range []int{1, 7, 8, 20, 40} {
			keys := make([]uint64, n)
			idx := make([]int32, n)
			for i := range keys {
				keys[i] = r.Uint64() & (1<<w - 1)
				idx[i] = int32(i)
			}
			clk := device.NewClock(dev)
			gpu.LSBRadixSort64(clk, gpuConfig(n), keys, idx, w)
			got, want := RadixSortCost(dev, int64(n), 1, w), clk.Seconds()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d width=%d: RadixSortCost %v, executed sort charged %v", n, w, got, want)
			}
		}
	}
}

// TestMergeRunsMatchesOracle: k-way merging sorted runs must reproduce the
// total order of the union, with and without a limit — the fleet invariant.
func TestMergeRunsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, nRuns := range []int{1, 2, 3, 8} {
		for _, limit := range []int{0, 1, 5} {
			q := sortTestQuery(randomOrderKeys(r), limit)
			rows := randomSortRows(r, 100)
			sorted := orderRowsOracle(&q, rows)
			// Deal the sorted rows round-robin: every run stays sorted.
			runs := make([][]Row, nRuns)
			for i, row := range sorted {
				runs[i%nRuns] = append(runs[i%nRuns], row)
			}
			got := mergeRuns(&q, runs, limit)
			want := sorted
			if limit > 0 && limit < len(want) {
				want = want[:limit]
			}
			if len(got) != len(want) {
				t.Fatalf("runs=%d limit=%d: got %d rows, want %d", nRuns, limit, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key {
					t.Fatalf("runs=%d limit=%d: row %d is %d, want %d", nRuns, limit, i, got[i].Key, want[i].Key)
				}
			}
		}
	}
	if out := mergeRuns(&Query{}, nil, 0); len(out) != 0 {
		t.Fatalf("merging no runs returned %d rows", len(out))
	}
}

// TestEncodeOrderKey: the radix key encoding must be order-preserving
// (ascending) and order-inverting (descending) over the full int64 range.
func TestEncodeOrderKey(t *testing.T) {
	vals := []int64{-1 << 62, -100, -1, 0, 1, 99, 1 << 62}
	for i := 1; i < len(vals); i++ {
		if encodeOrderKey(vals[i-1], false) >= encodeOrderKey(vals[i], false) {
			t.Errorf("asc encoding not monotone at %d < %d", vals[i-1], vals[i])
		}
		if encodeOrderKey(vals[i-1], true) <= encodeOrderKey(vals[i], true) {
			t.Errorf("desc encoding not anti-monotone at %d < %d", vals[i-1], vals[i])
		}
	}
}

// TestSortCostModel checks the planner-facing cost helpers: zero for
// degenerate inputs, monotone in n, and the heap strictly cheaper than the
// full sort for a small k over many rows (the condition that makes
// placement=auto pick the heap).
func TestSortCostModel(t *testing.T) {
	host, gpu := device.I76900(), device.V100()
	if MergeSortCost(host, 1, 16) != 0 || TopNHeapCost(host, 0, 16, 5) != 0 || RadixSortCost(gpu, 1, 1, 20) != 0 {
		t.Fatal("degenerate sorts must cost nothing")
	}
	if MergeSortCost(host, 1000, 16) >= MergeSortCost(host, 100_000, 16) {
		t.Error("merge sort cost not monotone in n")
	}
	if TopNHeapCost(host, 100_000, 16, 5) >= MergeSortCost(host, 100_000, 16) {
		t.Error("heap top-5 over 100k rows should price under the full sort")
	}
	if TopNHeapCost(host, 100, 16, 100) != MergeSortCost(host, 100, 16) {
		t.Error("k >= n must fall back to the full-sort price")
	}
	if one, two := RadixSortCost(gpu, 10_000, 1, 20), RadixSortCost(gpu, 10_000, 2, 20); two <= one {
		t.Error("two sort keys must cost more than one")
	}
	q := sortTestQuery(nil, 0)
	if q.SortRowBytes() != 8+8*2 {
		t.Errorf("SortRowBytes = %d, want 24", q.SortRowBytes())
	}
	if q.AggRowBytes() != 8+8*2 {
		t.Errorf("AggRowBytes = %d, want 24 (SUM+MAX is two slots)", q.AggRowBytes())
	}
	avg := Query{Aggs: []AggSpec{{Func: FuncAvg}}}
	if avg.AggRowBytes() != 8+8*2 {
		t.Errorf("AVG AggRowBytes = %d, want 24 (sum+count slots)", avg.AggRowBytes())
	}
	if (&Query{}).AggRowBytes() != 16 {
		t.Error("legacy single-SUM row must stay 16 bytes")
	}
}
