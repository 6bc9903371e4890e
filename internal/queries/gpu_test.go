package queries

import (
	"fmt"
	"runtime"
	"testing"

	"crystal/internal/device"
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
// buffer is sized generously (so no pass grows one into fresh zeroed memory)
// and filled with 0x7f garbage: out-of-range selection indices, huge decoded
// values, payloads, row values and accumulators, and aggregate input tiles
// of a foreign tile.
func poisonScratch() {
	drainScratch()
	garbage := make([]int32, ssb.MorselAlign)
	for j := range garbage {
		garbage[j] = 0x7f7f7f7f
	}
	for i := 0; i < cap(scratchFree); i++ {
		s := new(tileScratch)
		s.reserve(ssb.MorselAlign, 8, 8, 8)
		copy(s.sel, garbage)
		copy(s.items, garbage)
		for _, col := range s.cols {
			copy(col, garbage)
		}
		for j := range s.aggs {
			s.aggs[j] = garbage
		}
		copy(s.row, garbage)
		for j := range s.acc {
			s.acc[j] = 0x7f7f7f7f7f7f7f7f
		}
		putScratch(s)
	}
}

// TestPoisonedScratchEqualsFresh pins the tileScratch invariant: the scan
// reads only entries it wrote in the same tile, so a pass whose every worker
// starts from another tile's garbage returns the oracle's rows and the
// simulated seconds of a pass on fresh scratch — the 13 catalog queries plus
// a grouped multi-aggregate, a global multi-aggregate and a no-filter
// statement, on a table whose last tile is partial, plain and packed, on all
// six engines, a fleet of two and the hybrid placement, and as members of an
// eight-member shared scan.
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
	plans := make([]*Plan, len(stmts))
	wants := make([]*Result, len(stmts))
	for i, q := range stmts {
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		plans[i], wants[i] = Compile(ds, q), normalizeRef(q, Reference(ds, q))
	}
	for _, pf := range []*ssb.PackedFact{nil, packed} {
		opts := RunOptions{Partition: PartitionOptions{Partitions: 3, Packed: pf}}
		for i, q := range stmts {
			plan := plans[i]
			runs := map[string]func() *Result{
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
			for _, e := range Engines() {
				runs[string(e)] = func() *Result { return runEngine(plan, e, opts) }
			}
			for name, run := range runs {
				label := fmt.Sprintf("%s %s packed=%v", q.ID, name, pf != nil)
				drainScratch()
				fresh := run()
				poisonScratch()
				got := run()
				queriestest.SameRun(t, label+" (poisoned vs fresh)", got, fresh)
				if !got.Equal(wants[i]) {
					t.Errorf("%s: rows on poisoned scratch disagree with the reference", label)
				}
			}
		}
		// Eight members ride one pass: each member's tiles follow another
		// member's in the same scratch.
		batch := func() *BatchResult {
			br, err := RunBatch(plans[len(plans)-8:], EngineCPU, opts)
			if err != nil {
				t.Fatal(err)
			}
			return br
		}
		drainScratch()
		fresh := batch()
		poisonScratch()
		got := batch()
		for i, m := range got.Members {
			label := fmt.Sprintf("batch member %s packed=%v", m.Query.ID, pf != nil)
			queriestest.SameRun(t, label+" (poisoned vs fresh)", m.Result, fresh.Members[i].Result)
			if !m.Result.Equal(wants[len(plans)-8+i]) {
				t.Errorf("%s: rows on poisoned scratch disagree with the reference", label)
			}
		}
	}
}

// TestGPURunAllocationBudget is the tier-1 allocation gate of the GPU-family
// path: once the free list is warm a run allocates per scan pass and per result
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

// TestPriceGPURefusesOtherLines pins the guard on priceGPU: the scan counts
// selective reads in 128 B lines, so a device with another DRAM line would
// be priced wrong, and is refused instead.
func TestPriceGPURefusesOtherLines(t *testing.T) {
	q, err := ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(diffDS, q)
	st := passStats(p, RunOptions{})
	defer func() {
		if recover() == nil {
			t.Error("a GPU pricing on 64 B lines did not panic")
		}
	}()
	p.priceGPU(device.I76900(), st)
}
