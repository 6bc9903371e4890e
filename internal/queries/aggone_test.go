package queries

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/sched"
)

// TestSingleSumIsAggListOfOne pins that the Agg spelling is nothing but a
// list of one SUM: for the 13 catalog queries, 60 generated single-SUM
// statements (ORDER BY and LIMIT included), a statement whose every product
// is zero and two that match nothing, q and q with Aggs = [{SUM, q.Agg}]
// return the same rows, the same simulated seconds bit for bit, the same
// merge traffic and the same per-executor telemetry — on all six engines, a
// 2-GPU fleet and hybrid at two CPU fractions, over 7 morsels, plain and
// packed.
//
// The zero-sum statement pins the atomic rule of the GPU kernel's block
// reduction from both sides: a block whose SUM came to zero issues no atomic
// under either spelling (lists used to issue one whenever a row survived),
// and the generated statements — whose tiles hold non-zero sums — keep
// issuing theirs.
func TestSingleSumIsAggListOfOne(t *testing.T) {
	stmts := All()
	r := rand.New(rand.NewSource(20261003))
	for i := 0; len(stmts) < 13+60; i++ {
		if q := RandomQuery(r, diffDS, i, GenOptions{Extended: true}); q.Aggs == nil {
			stmts = append(stmts, q)
		}
	}
	stmts = append(stmts,
		Query{ID: "zero-sum", Agg: AggSumExtDisc, FactFilters: []Filter{{Col: "discount", Lo: 0, Hi: 0}}},
		// Every morsel zone-pruned; and no morsel pruned but no row alive.
		Query{ID: "no-match-pruned", Agg: AggSumRevenue, FactFilters: []Filter{{Col: "quantity", Lo: 1000, Hi: 2000}}},
		Query{ID: "no-match-scanned", Agg: AggSumProfit, Joins: []JoinSpec{
			{Dim: "date", FactFK: "orderdate", Filters: []Filter{{Col: "year", Lo: 3000, Hi: 3000}}},
		}},
	)
	fl := fleet.Spec{GPUs: 2, Link: fleet.Interconnects()[0]}
	type placement struct {
		name     string
		schedule func(*Plan, RunOptions) (sched.Schedule, error)
	}
	var places []placement
	for _, e := range Engines() {
		places = append(places, placement{string(e), func(p *Plan, o RunOptions) (sched.Schedule, error) {
			return p.ScheduleEngine(e, o), nil
		}})
	}
	places = append(places, placement{"fleet2", func(p *Plan, o RunOptions) (sched.Schedule, error) {
		return p.ScheduleFleet(fl, o)
	}})
	for _, frac := range []float64{0.25, 0.75} {
		places = append(places, placement{fmt.Sprintf("hybrid%.2f", frac), func(p *Plan, o RunOptions) (sched.Schedule, error) {
			s, _, err := p.ScheduleHybrid(fl, frac, o)
			return s, err
		}})
	}
	for _, q := range stmts {
		list := q
		list.Aggs = []AggSpec{{Func: FuncSum, Expr: q.Agg}}
		if err := list.Validate(); err != nil {
			t.Fatalf("%s as a list of one: %v", q.ID, err)
		}
		if q.AggRowBytes() != 16 || list.AggRowBytes() != 16 {
			t.Errorf("%s: AggRowBytes() = %d / %d as a list, want 16", q.ID, q.AggRowBytes(), list.AggRowBytes())
		}
		single, listed := Compile(diffDS, q), Compile(diffDS, list)
		for _, packed := range []bool{false, true} {
			opts := RunOptions{Partition: PartitionOptions{Partitions: 7}}
			if packed {
				opts.Partition.Packed = diffPacked
			}
			for _, pl := range places {
				label := fmt.Sprintf("%s on %s packed=%v", q.ID, pl.name, packed)
				run := func(p *Plan) *ScheduledResult {
					s, err := pl.schedule(p, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sr, err := p.RunScheduled(s)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return sr
				}
				a, b := run(single), run(listed)
				if !reflect.DeepEqual(a.Result.Rows(), b.Result.Rows()) {
					t.Errorf("%s: rows differ between the two spellings", label)
				}
				if a.Result.Aggs != nil || b.Result.Aggs == nil {
					t.Errorf("%s: Result.Aggs must be nil for the Agg spelling and set for the list", label)
				}
				if a.Result.accs != nil || b.Result.accs != nil {
					t.Errorf("%s: RunScheduled handed out its raw accumulator table", label)
				}
				if math.Float64bits(a.Result.Seconds) != math.Float64bits(b.Result.Seconds) {
					t.Errorf("%s: %.6e s as a single SUM, %.6e s as a list of one", label, a.Result.Seconds, b.Result.Seconds)
				}
				if a.MergeBytes != b.MergeBytes {
					t.Errorf("%s: merge bytes %d as a single SUM, %d as a list of one", label, a.MergeBytes, b.MergeBytes)
				}
				if !reflect.DeepEqual(a.Executors, b.Executors) {
					t.Errorf("%s: executor telemetry differs:\n single %+v\n list   %+v", label, a.Executors, b.Executors)
				}
			}
		}
	}
}
