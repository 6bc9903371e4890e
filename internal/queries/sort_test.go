package queries

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/gpu"
	"crystal/internal/sched"
	"crystal/internal/ssb"
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

// sortSchedule is a schedule whose placement executeSort reads: one busy
// assignment per executor.
func sortSchedule(link fleet.Interconnect, xs ...sched.Executor) sched.Schedule {
	s := sched.Schedule{Link: link, Morsels: len(xs)}
	for i, x := range xs {
		s.Assignments = append(s.Assignments, sched.Assignment{Executor: x, Morsels: []int{i}})
	}
	return s
}

// radixCascade is the reference ORDER BY that never consults rowCmp: from
// the packed-key order, one stable gpu.LSBRadixSort64 per ORDER BY key over
// its rebased encodeOrderKey values, least significant key first. It
// returns the ordered rows and the seconds each key's sort charged clk.
func radixCascade(q *Query, clk *device.Clock, rows []Row) ([]Row, []float64) {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.Key, b.Key) })
	var secs []float64
	for ki := len(q.OrderBy) - 1; ki >= 0; ki-- {
		k, last := q.OrderBy[ki], clk.Seconds()
		if len(rows) > 1 {
			keys := make([]uint64, len(rows))
			idx := make([]int32, len(rows))
			lo, hi := ^uint64(0), uint64(0)
			for i, r := range rows {
				keys[i] = encodeOrderKey(orderVal(q, k, r), k.Desc)
				lo, hi = min(lo, keys[i]), max(hi, keys[i])
				idx[i] = int32(i)
			}
			for i := range keys {
				keys[i] -= lo
			}
			_, perm := gpu.LSBRadixSort64(clk, gpuConfig(len(rows)), keys, idx, bits.Len64(hi-lo))
			sorted := make([]Row, len(rows))
			for i, p := range perm {
				sorted[i] = rows[p]
			}
			rows = sorted
		}
		secs = append(secs, clk.Seconds()-last)
	}
	return rows, secs
}

// checkSortRows fails the test unless got holds exactly the keys of want,
// in order.
func checkSortRows(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if got == nil || len(got) != len(want) {
		t.Fatalf("%s: got %d rows (nil %v), want %d", what, len(got), got == nil, len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("%s: row %d is %d, want %d", what, i, got[i].Key, want[i].Key)
		}
	}
}

// TestMergeSortMatchesOracle: the host placement's full sort returns the
// reference order and prices the bottom-up merge sort's passes — one per
// doubling of the run width, each streaming every row once.
func TestMergeSortMatchesOracle(t *testing.T) {
	host := device.I76900()
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 64, 257} {
		for trial := 0; trial < 20; trial++ {
			q := sortTestQuery(randomOrderKeys(r), 0)
			rows := randomSortRows(r, n)
			o := (&Plan{Query: q}).executeSort(sortSchedule(fleet.PCIe(), engineExecutor{e: EngineCPU}), rows)
			want, _ := radixCascade(&q, device.NewClock(host), rows)
			what := fmt.Sprintf("n=%d trial=%d keys=%v", n, trial, q.OrderBy)
			checkSortRows(t, what, o.rows, want)
			passes := 0
			for width := 1; width < n; width *= 2 {
				passes++
			}
			if len(o.stages) != passes {
				t.Fatalf("%s: %d stages, want %d merge passes", what, len(o.stages), passes)
			}
			pass := host.PassTime(cpuSortPass(int64(n), q.SortRowBytes()))
			for p, st := range o.stages {
				if st.label != fmt.Sprintf("merge pass %d", p) || st.sim != pass {
					t.Fatalf("%s: stage %d is %q at %v s, want merge pass %d at %v s", what, p, st.label, st.sim, p, pass)
				}
			}
		}
	}
}

// TestHeapTopNMatchesOracle: host top-N returns exactly the first k rows of
// the reference order (top-N ≡ sort-then-truncate), priced as one bounded
// heap pass when the heap prices under the full sort and as the merge
// passes otherwise.
func TestHeapTopNMatchesOracle(t *testing.T) {
	host := device.I76900()
	r := rand.New(rand.NewSource(2))
	heaps := 0
	for _, n := range []int{0, 1, 5, 33, 128} {
		for _, k := range []int{0, 1, 2, 7, n, n + 3} {
			q := sortTestQuery(randomOrderKeys(r), k)
			rows := randomSortRows(r, n)
			o := (&Plan{Query: q}).executeSort(sortSchedule(fleet.PCIe(), engineExecutor{e: EngineCPU}), rows)
			want, _ := radixCascade(&q, device.NewClock(host), rows)
			what := fmt.Sprintf("n=%d k=%d keys=%v", n, k, q.OrderBy)
			checkSortRows(t, what, o.rows, truncateRows(&q, want))
			nn, rb := int64(n), q.SortRowBytes()
			if k > 0 && k < n && TopNHeapCost(host, nn, rb, k) < MergeSortCost(host, nn, rb) {
				heaps++
				if len(o.stages) != 1 || o.stages[0].label != fmt.Sprintf("heap top-%d", k) ||
					o.stages[0].sim != TopNHeapCost(host, nn, rb, k) {
					t.Fatalf("%s: stages %+v, want one heap top-%d pass at %v s", what, o.stages, k, TopNHeapCost(host, nn, rb, k))
				}
				continue
			}
			if n > 1 && (len(o.stages) != bits.Len64(uint64(n-1)) || o.stages[0].label != "merge pass 0") {
				t.Fatalf("%s: stages %+v, want %d merge passes", what, o.stages, bits.Len64(uint64(n-1)))
			}
		}
	}
	if heaps == 0 {
		t.Error("no top-N trial chose the heap")
	}
}

// TestRadixSortRowsMatchesOracle: the GPU placement returns the order the
// executed LSD radix cascade lands on, and prices each key's stage at the
// seconds that cascade charged its clock, bit for bit; the least
// significant key's stage is RadixSortCost at the key's rebased width.
func TestRadixSortRowsMatchesOracle(t *testing.T) {
	dev := device.V100()
	r := rand.New(rand.NewSource(3))
	charged := false
	for _, n := range []int{0, 1, 2, 65, 300} {
		for trial := 0; trial < 10; trial++ {
			q := sortTestQuery(randomOrderKeys(r), 0)
			rows := randomSortRows(r, n)
			o := (&Plan{Query: q}).executeSort(sortSchedule(fleet.PCIe(), &gpuDeviceExecutor{dev: dev}), rows)
			want, secs := radixCascade(&q, device.NewClock(dev), rows)
			what := fmt.Sprintf("n=%d trial=%d keys=%v", n, trial, q.OrderBy)
			checkSortRows(t, what, o.rows, want)
			if n <= 1 {
				continue
			}
			if len(o.stages) != len(secs) {
				t.Fatalf("%s: %d stages, want one per key (%d)", what, len(o.stages), len(secs))
			}
			for i, st := range o.stages {
				ki := len(q.OrderBy) - 1 - i
				if st.label != fmt.Sprintf("radix key %d", ki) || math.Float64bits(st.sim) != math.Float64bits(secs[i]) {
					t.Fatalf("%s: stage %d is %q at %v s, want radix key %d at %v s", what, i, st.label, st.sim, ki, secs[i])
				}
			}
			width := orderKeyWidth(&q, q.OrderBy[len(q.OrderBy)-1], rows)
			if cost := RadixSortCost(dev, int64(n), 1, width); math.Float64bits(o.stages[0].sim) != math.Float64bits(cost) {
				t.Fatalf("%s: first stage %v s, RadixSortCost at width %d is %v s", what, o.stages[0].sim, width, cost)
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

// TestMergeRunsMatchesOracle: the fleet placement returns the reference
// order with and without a limit, and prices the slowest shard's radix sort,
// min(LIMIT, shard) shipped rows per device, and the host merge of the runs.
func TestMergeRunsMatchesOracle(t *testing.T) {
	dev, link := device.V100(), fleet.NVLink()
	r := rand.New(rand.NewSource(4))
	for _, nRuns := range []int{2, 3, 8} {
		for _, limit := range []int{0, 1, 5} {
			q := sortTestQuery(randomOrderKeys(r), limit)
			rows := randomSortRows(r, 100)
			slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.Key, b.Key) }) // resultRows order
			xs := make([]sched.Executor, nRuns)
			for d := range xs {
				xs[d] = &gpuDeviceExecutor{dev: dev, idx: d}
			}
			o := (&Plan{Query: q}).executeSort(sortSchedule(link, xs...), rows)
			want, _ := radixCascade(&q, device.NewClock(dev), rows)
			what := fmt.Sprintf("runs=%d limit=%d keys=%v", nRuns, limit, q.OrderBy)
			checkSortRows(t, what, o.rows, truncateRows(&q, want))

			var makespan float64
			var shipBytes int64
			for d := range nRuns {
				shard := rows[d*len(rows)/nRuns : (d+1)*len(rows)/nRuns]
				var shardSecs float64
				_, secs := radixCascade(&q, device.NewClock(dev), shard)
				for _, s := range secs {
					shardSecs += s
				}
				makespan = max(makespan, shardSecs)
				run := len(shard)
				if limit > 0 {
					run = min(run, limit)
				}
				shipBytes += int64(run) * q.SortRowBytes()
			}
			if len(o.stages) != 3 || o.stages[0].label != fmt.Sprintf("device sort x%d", nRuns) ||
				o.stages[1].label != "ship runs" || o.stages[2].label != "merge runs" {
				t.Fatalf("%s: stages %+v, want device sort, ship runs, merge runs", what, o.stages)
			}
			if o.stages[0].sim != makespan {
				t.Errorf("%s: device sort stage %v s, slowest shard's cascade charged %v s", what, o.stages[0].sim, makespan)
			}
			if o.stages[1].bytes != shipBytes || o.stages[1].sim != link.TransferTime(shipBytes) {
				t.Errorf("%s: shipped %d B in %v s, want %d B in %v s",
					what, o.stages[1].bytes, o.stages[1].sim, shipBytes, link.TransferTime(shipBytes))
			}
		}
	}
	empty := sortTestQuery([]OrderKey{{Item: 0}}, 0)
	if o := (&Plan{Query: empty}).executeSort(sortSchedule(link, &gpuDeviceExecutor{dev: dev}, &gpuDeviceExecutor{dev: dev, idx: 1}), nil); o.rows == nil || len(o.rows) != 0 || len(o.stages) != 0 {
		t.Fatalf("sorting no rows returned %d rows (nil %v) and %d stages", len(o.rows), o.rows == nil, len(o.stages))
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

// BenchmarkExecuteSort is the per-layer benchmark of the ORDER BY phase: the
// result rows of q4.2 over 2^20 fact rows, ordered by its aggregate
// descending and then its first group column, priced on the host as a top-5
// heap and as a full merge sort, as one GPU's radix sort, and as a 4-GPU
// fleet's sorted-run merge. ns/op, B/op and allocs/op are the phase's own
// host cost: ordering the rows once and pricing the placement's stages.
func BenchmarkExecuteSort(b *testing.B) {
	const rows = 1 << 20
	ds := ssb.GenerateRows(rows)
	q, err := ByID("q4.2")
	if err != nil {
		b.Fatal(err)
	}
	q.OrderBy = []OrderKey{{Item: 0, Desc: true}, {Item: -1, Group: 0}}
	full, top := q, q
	top.Limit = 5
	fullPlan, topPlan := Compile(ds, full), Compile(ds, top)
	res := resultRows(&full, fullPlan.Run(EngineCPU))
	fleetSched, err := topPlan.ScheduleFleet(fleet.Spec{GPUs: 4, Link: fleet.NVLink()}, RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, stage string
		p           *Plan
		s           sched.Schedule
	}{
		{"cpu-heap", "heap top-5", topPlan, topPlan.ScheduleEngine(EngineCPU, RunOptions{})},
		{"cpu-merge", "merge pass 0", fullPlan, fullPlan.ScheduleEngine(EngineCPU, RunOptions{})},
		{"gpu", "radix key 1", topPlan, topPlan.ScheduleEngine(EngineGPU, RunOptions{})},
		{"fleet4", "device sort x4", topPlan, fleetSched},
	} {
		if got := c.p.executeSort(c.s, res).stages[0].label; got != c.stage {
			b.Fatalf("%s: first stage %q, want %q", c.name, got, c.stage)
		}
		b.Run(fmt.Sprintf("%s/rows=%d", c.name, len(res)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.p.executeSort(c.s, res)
			}
		})
	}
}
