package queries

import (
	"fmt"
	"runtime"
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/queries/queriestest"
	"crystal/internal/ssb"
)

// drainScratch empties the tile-scratch free list, so the next blocks
// allocate fresh (zeroed) scratch.
func drainScratch() {
	for {
		select {
		case <-scratchFree:
		default:
			return
		}
	}
}

// poisonScratch replaces the free list's contents with scratch whose every
// buffer is sized generously (so no kernel grows one into fresh zeroed
// memory) and filled with 0x7f garbage: a non-zero bitmap, huge items,
// keys, delta vectors and accumulators, and row-delta slices of the wrong length.
func poisonScratch() {
	drainScratch()
	for i := 0; i < cap(scratchFree); i++ {
		s := new(tileScratch)
		s.reserve(ssb.MorselAlign, 16, 8)
		for j := range s.items {
			s.items[j] = 0x7f7f7f7f
			s.bitmap[j] = 0x7f
			s.keys[j] = 0x7f7f7f7f7f7f7f7f
			s.rowDeltas[j] = s.flat[:1]
		}
		for _, col := range s.cols {
			for j := range col {
				col[j] = 0x7f7f7f7f
			}
		}
		for j := range s.vals {
			s.vals[j] = 0x7f7f7f7f
		}
		for j := range s.flat {
			s.flat[j] = 0x7f7f7f7f7f7f7f7f
		}
		for j := range s.acc {
			s.acc[j] = 0x7f7f7f7f7f7f7f7f
		}
		putScratch(s)
	}
}

// TestPoisonedScratchEqualsFresh pins the tileScratch invariant: a kernel
// reads only slots it wrote in the same block, so a launch whose every block
// starts from another tile's garbage returns the oracle's rows and the
// simulated seconds of a launch on fresh scratch — the 13 catalog queries
// plus a grouped multi-aggregate, a global multi-aggregate and a no-filter
// statement, on a table whose last tile is partial, plain and packed, on one
// GPU, a fleet of two and the hybrid placement.
func TestPoisonedScratchEqualsFresh(t *testing.T) {
	defer drainScratch()
	ds := ssb.GenerateRows(5*ssb.MorselAlign + 777)
	packed := ds.Pack()
	aggs := []AggSpec{
		{Func: FuncSum, Expr: AggSumExtDisc}, {Func: FuncMin, Expr: AggSumRevenue},
		{Func: FuncMax, Expr: AggSumProfit}, {Func: FuncAvg, Expr: AggSumRevenue}, {Func: FuncCount},
	}
	stmts := append(All(),
		Query{ID: "multi-grouped", Aggs: aggs,
			FactFilters: []Filter{{Col: "quantity", Lo: 1, Hi: 30}},
			Joins: []JoinSpec{
				{Dim: "date", FactFK: "orderdate", Payload: "year"},
				{Dim: "customer", FactFK: "custkey", Payload: "region"},
			}},
		Query{ID: "multi-global", Aggs: aggs, FactFilters: []Filter{{Col: "discount", Lo: 2, Hi: 7}}},
		Query{ID: "no-filter", Agg: AggSumProfit, Joins: []JoinSpec{{Dim: "date", FactFK: "orderdate", Payload: "year"}}},
	)
	fl := fleet.Spec{GPUs: 2, Link: fleet.Interconnects()[0]}
	for _, q := range stmts {
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		want := normalizeRef(q, Reference(ds, q))
		plan := Compile(ds, q)
		for _, pf := range []*ssb.PackedFact{nil, packed} {
			opts := RunOptions{Partition: PartitionOptions{Partitions: 3, Packed: pf}}
			runs := map[string]func() *Result{
				"gpu": func() *Result { return runEngine(plan, EngineGPU, opts) },
				"fleet": func() *Result {
					sr, err := runFleet(plan, fl, opts)
					if err != nil {
						t.Fatalf("%s: fleet: %v", q.ID, err)
					}
					return sr.Result
				},
				"hybrid": func() *Result {
					sr, err := runHybrid(plan, fl, -1, opts)
					if err != nil {
						t.Fatalf("%s: hybrid: %v", q.ID, err)
					}
					return sr.Result
				},
			}
			for name, run := range runs {
				label := fmt.Sprintf("%s %s packed=%v", q.ID, name, pf != nil)
				drainScratch()
				fresh := run()
				poisonScratch()
				got := run()
				queriestest.SameRun(t, label+" (poisoned vs fresh)", got, fresh)
				if !got.Equal(want) {
					t.Errorf("%s: rows on poisoned scratch disagree with the reference", label)
				}
			}
		}
	}
}

// TestGPURunAllocationBudget is the tier-1 allocation gate of the GPU-family
// path: once the free list is warm a run allocates per launch and per result
// group — not per tile, per row or per slot of the group estimate. Before
// tile scratch was reused and the aggregation table sized by occupancy, q4.3
// (estimate 2^20 groups) allocated 32 MB a run and q1.1 two slices a tile.
func TestGPURunAllocationBudget(t *testing.T) {
	const maxAllocs, maxKB = 150, 256
	ds := ssb.GenerateRows(1 << 18)
	// No helpers: one worker, so the figure is not a function of the core count.
	solo := RunOptions{Partition: PartitionOptions{Limiter: new(refusingGate)}}
	for _, id := range []string{"q1.1", "q2.1", "q3.2", "q4.3"} {
		q, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		pl := Compile(ds, q)
		pl.Run(EngineGPU) // warm the free list
		if allocs := testing.AllocsPerRun(3, func() { pl.Run(EngineGPU) }); allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations a GPU run, budget %d", id, allocs, maxAllocs)
		}
		if kb := kbPerRun(func() { runEngine(pl, EngineGPU, solo) }); kb > maxKB {
			t.Errorf("%s: %.1f KB allocated a GPU run, budget %d KB", id, kb, maxKB)
		}
	}
}

// kbPerRun is the KB allocated per call of run, over three calls.
func kbPerRun(run func()) float64 {
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
}

// TestCPURunAllocationBudget is the same gate for the CPU-family path, on the
// two catalog statements with hundreds of groups: a run allocates its workers'
// accumulator tables, the merged result's maps and little else. The budgets
// are what a run cost while single SUMs had a map[int64]int64 per worker and
// two more copies on the way to the reply (79.1 and 58.8 KB; one flat table
// adopted from kernel to merge reads 67.9 and 51.3). Routing them through a
// map of per-group vectors instead reads 93.3 and 76.4 — allocation per group
// is what this catches. Two workers, whatever the box has.
func TestCPURunAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ds := ssb.GenerateRows(1 << 18)
	for id, maxKB := range map[string]float64{"q2.1": 80, "q3.2": 60} {
		q, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		pl := Compile(ds, q)
		pl.Run(EngineCPU) // warm-up
		if kb := kbPerRun(func() { pl.Run(EngineCPU) }); kb > maxKB {
			t.Errorf("%s: %.1f KB allocated a CPU run, budget %.0f KB", id, kb, maxKB)
		}
	}
}
