package queries

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"crystal/internal/fleet"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// TestSoloIsBatchOfOne pins "a solo run is a batch of one" at the scan
// kernel: for every catalog query, on both fact encodings, monolithic and
// partitioned, an n-member pass hands each member exactly the rows and
// access statistics its own one-member pass produces — no matter who else
// rides the pass or in which order — and a one-member pass's union line
// counts are that member's own.
func TestSoloIsBatchOfOne(t *testing.T) {
	qs := All()
	plans := make([]*Plan, len(qs))
	for i, q := range qs {
		plans[i] = Compile(testDS, q)
	}
	for _, packed := range []bool{false, true} {
		for _, parts := range []int{0, 7} {
			opts := RunOptions{Partition: PartitionOptions{Partitions: parts}}
			if packed {
				opts.Partition.Packed = testPacked
			}
			seat := func(order []int) []scanMember {
				members := make([]scanMember, len(order))
				for i, pi := range order {
					members[i] = scanMember{p: plans[pi], ms: plans[pi].morselRun(opts)}
				}
				return members
			}
			forward := make([]int, len(plans))
			reverse := make([]int, len(plans))
			for i := range plans {
				forward[i] = i
				reverse[i] = len(plans) - 1 - i
			}
			shared, sharedStats, union64 := scanKernel(seat(forward))
			flipped, flippedStats, flippedUnion64 := scanKernel(seat(reverse))
			if !reflect.DeepEqual(union64, flippedUnion64) {
				t.Errorf("packed=%v parts=%d: member order changed the union line counts", packed, parts)
			}
			for i, q := range qs {
				label := fmt.Sprintf("%s packed=%v parts=%d", q.ID, packed, parts)
				solo, soloStats, solo64 := scanKernel(seat([]int{i}))
				if !reflect.DeepEqual(solo64, soloStats[0].lines64) {
					t.Errorf("%s: one-member union counts differ from the member's own line counts", label)
				}
				for name, got := range map[string]struct {
					res *Result
					st  *pipeStats
				}{
					"13-member pass":          {shared[i], sharedStats[i]},
					"reversed 13-member pass": {flipped[len(qs)-1-i], flippedStats[len(qs)-1-i]},
				} {
					if !reflect.DeepEqual(rawGroups(got.res), rawGroups(solo[0])) {
						t.Errorf("%s: %s rows differ from the one-member pass", label, name)
					}
					if !reflect.DeepEqual(got.st, soloStats[0]) {
						t.Errorf("%s: %s stats differ from the one-member pass:\n got %+v\nwant %+v", label, name, got.st, soloStats[0])
					}
				}
				for c, v := range soloStats[0].lines64 {
					if union64[c] < v {
						t.Errorf("%s: union streams %d lines of %s, fewer than this member's %d", label, union64[c], c, v)
					}
				}
			}
		}
	}
}

// rawGroups copies a raw result's accumulator table out by content: two equal
// tables may lay their groups out in different orders.
func rawGroups(r *Result) map[int64][]int64 {
	out := map[int64][]int64{}
	r.accs.Each(func(k int64, acc []int64) { out[k] = append([]int64(nil), acc...) })
	return out
}

// BenchmarkScanKernel is the per-layer benchmark of the one row loop: a
// monolithic pass over 2^20 fact rows with one member (the solo engines'
// path) and with eight (a full shared-scan batch), on a filter-only query
// with no group (q1.1) and one-, three- and four-join grouped ones (q2.1 and
// q4.3 end in hundreds of groups, so the accumulator table's host cost shows
// in B/op where it is paid). ns/row is per member-row, so a kernel that
// shares a pass at no extra cost reports the same figure at both sizes.
func BenchmarkScanKernel(b *testing.B) {
	const rows = 1 << 20
	ds := ssb.GenerateRows(rows)
	for _, id := range []string{"q1.1", "q2.1", "q3.1", "q4.3"} {
		q, err := ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		plan := Compile(ds, q)
		for _, n := range []int{1, 8} {
			members := make([]scanMember, n)
			for i := range members {
				members[i] = scanMember{p: plan, ms: plan.morselRun(RunOptions{})}
			}
			b.Run(fmt.Sprintf("%s/members=%d", id, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					scanKernel(members)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*n), "ns/row")
			})
		}
	}
}

// BenchmarkRunGPU is the per-layer benchmark of the GPU-family path: the
// tile kernel over 2^20 fact rows on one GPU and on a 4-GPU fleet (one launch
// per device over its shard, then the host merge), for a filter-only query
// and one-, three- and four-join grouped ones whose group estimates run from
// 7,000 to the 2^20 cap. Allocations are the path's own — tile scratch comes
// from the free list, aggregation tables are sized by occupancy — so B/op and
// allocs/op should not move with the row count.
func BenchmarkRunGPU(b *testing.B) {
	const rows = 1 << 20
	ds := ssb.GenerateRows(rows)
	fl := fleet.Spec{GPUs: 4, Link: fleet.Interconnects()[0]}
	for _, id := range []string{"q1.1", "q2.1", "q3.2", "q4.3"} {
		q, err := ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		plan := Compile(ds, q)
		fleetSched, err := plan.ScheduleFleet(fl, RunOptions{Partition: PartitionOptions{Partitions: fl.GPUs}})
		if err != nil {
			b.Fatal(err)
		}
		for _, place := range []struct {
			name string
			s    sched.Schedule
		}{{"gpu", plan.ScheduleEngine(EngineGPU, RunOptions{})}, {"fleet4", fleetSched}} {
			b.Run(id+"/"+place.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := plan.RunScheduled(place.s); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}

// BenchmarkRunBatch is the per-layer benchmark of the batch entry: eight
// scan-compatible range statements over 2^18 fact rows as one
// RunBatchScheduled, on an engine whose members are priced from their seat
// (CPU) and one whose members still execute (GPU). ns/op and allocs are the
// batch's; batch/solo is its wall clock over that of the same eight members'
// solo RunScheduled calls (base = solo), so a batch that scans once reads
// below 1 and one that re-executes every member reads near 2.
func BenchmarkRunBatch(b *testing.B) {
	const rows, members = 1 << 18, 8
	ds := ssb.GenerateRows(rows)
	plans := make([]*Plan, members)
	for i := range plans {
		lo := int32(i)
		plans[i] = Compile(ds, Query{ID: fmt.Sprintf("range%d", i), Agg: AggSumExtDisc, FactFilters: []Filter{
			{Col: "discount", Lo: lo, Hi: lo + 2},
			{Col: "quantity", Lo: 1, Hi: 10 + 5*lo},
		}})
	}
	for _, e := range []Engine{EngineCPU, EngineGPU} {
		b.Run(string(e), func(b *testing.B) {
			b.ReportAllocs()
			var batch, solo time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := RunBatch(plans, e, RunOptions{}); err != nil {
					b.Fatal(err)
				}
				batch += time.Since(t0)
				b.StopTimer()
				t0 = time.Now()
				for _, p := range plans {
					if _, err := p.RunScheduled(p.ScheduleEngine(e, RunOptions{})); err != nil {
						b.Fatal(err)
					}
				}
				solo += time.Since(t0)
				b.StartTimer()
			}
			b.ReportMetric(float64(batch)/float64(solo), "batch/solo")
		})
	}
}
