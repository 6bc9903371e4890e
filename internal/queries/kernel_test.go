package queries

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"crystal/internal/fleet"
	"crystal/internal/pack"
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
			shared, sharedStats, union64 := scanKernel(seat(forward), true)
			flipped, flippedStats, flippedUnion64 := scanKernel(seat(reverse), true)
			if !reflect.DeepEqual(union64, flippedUnion64) {
				t.Errorf("packed=%v parts=%d: member order changed the union line counts", packed, parts)
			}
			for i, q := range qs {
				label := fmt.Sprintf("%s packed=%v parts=%d", q.ID, packed, parts)
				solo, soloStats, solo64 := scanKernel(seat([]int{i}), true)
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

// TestScanTileAllocatesNothing: with its scratch reserved, a tile scan
// allocates nothing — filters, probes with and without payloads into
// identity and range-table indexes, and the aggregate, on the plain
// encoding and the packed one. Every tile buffer, a probe's dimension rows
// included, comes from the worker's scratch.
func TestScanTileAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		id     string
		packed bool
	}{{"q1.1", false}, {"q2.1", false}, {"q3.1", true}} {
		q, err := ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		p := Compile(testDS, q)
		var opts RunOptions
		if c.packed {
			opts.Partition.Packed = testPacked
		}
		var pipe scanPipe
		pipe.seat(scanMember{p: p, ms: p.morselRun(opts)}, nil)
		var a scanAcc
		a.open(&pipe)
		sc := getScratch(ssb.MorselAlign, pipe.payloads, len(p.agg.cols), p.agg.slots())
		rows := testDS.Lineorder.Rows()
		scan := func() {
			for lo := 0; lo < rows; lo += ssb.MorselAlign {
				a.scanTile(lo, min(ssb.MorselAlign, rows-lo), sc, nil)
			}
		}
		if allocs := testing.AllocsPerRun(5, scan); allocs != 0 {
			t.Errorf("%s packed=%v: %v allocations per scan of every tile", c.id, c.packed, allocs)
		}
		if a.out == 0 {
			t.Errorf("%s packed=%v: no row reached the aggregate", c.id, c.packed)
		}
		putScratch(sc)
	}
}

// passStats runs the plan alone through the scan kernel, over the extent
// opts resolves, and returns the statistics of its pass.
func passStats(p *Plan, opts RunOptions) *pipeStats {
	_, sts, _ := scanKernel([]scanMember{{p: p, ms: p.morselRun(opts)}}, false)
	return sts[0]
}

// rawGroups copies a raw result's accumulator table out by content: two equal
// tables may lay their groups out in different orders.
func rawGroups(r *Result) map[int64][]int64 {
	out := map[int64][]int64{}
	r.accs.Each(func(k int64, acc []int64) { out[k] = append([]int64(nil), acc...) })
	return out
}

// BenchmarkScanKernel is the per-layer benchmark of the one probe pipeline: a
// monolithic pass over 2^20 fact rows with one member (the solo engines'
// path) and with eight (a full shared-scan batch), on a filter-only query
// with no group (q1.1, and q1.1-in with its discount range bound as the IN
// list SQL binds onto a fact column) and one-, three- and four-join grouped
// ones (q2.1 and q4.3 end in hundreds of groups, so the accumulator table's
// host cost shows in B/op where it is paid; q2.1-packed reads the bit-packed
// encoding, decoding each tile's frame). ns/row is per member-row, so a
// kernel that shares a pass at no extra cost reports the same figure at both
// sizes.
func BenchmarkScanKernel(b *testing.B) {
	const rows = 1 << 20
	ds := ssb.GenerateRows(rows)
	packed := ds.Pack()
	byID := func(id string) Query {
		q, err := ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	in := byID("q1.1")
	in.ID, in.FactFilters = "q1.1-in", append([]Filter(nil), in.FactFilters...)
	in.FactFilters[1] = Filter{Col: "discount", In: []int32{1, 2, 3}}
	for _, c := range []struct {
		name string
		q    Query
		opts RunOptions
	}{
		{"q1.1", byID("q1.1"), RunOptions{}},
		{"q1.1-in", in, RunOptions{}},
		{"q2.1", byID("q2.1"), RunOptions{}},
		{"q2.1-packed", byID("q2.1"), RunOptions{Partition: PartitionOptions{Packed: packed}}},
		{"q3.1", byID("q3.1"), RunOptions{}},
		{"q4.3", byID("q4.3"), RunOptions{}},
	} {
		plan := Compile(ds, c.q)
		for _, n := range []int{1, 8} {
			members := make([]scanMember, n)
			for i := range members {
				members[i] = scanMember{p: plan, ms: plan.morselRun(c.opts)}
			}
			b.Run(fmt.Sprintf("%s/members=%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					scanKernel(members, n > 1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*n), "ns/row")
			})
		}
	}
}

// BenchmarkRunGPU is the per-layer benchmark of the GPU-family path: the
// scan over 2^20 fact rows priced on one GPU and on a 4-GPU fleet (one scan
// pass with a seat per device, one priced launch per device over its shard,
// then the host merge), for
// a filter-only query and one-, three- and four-join grouped ones whose group
// estimates run from 7,000 to the 2^20 cap. Allocations are the path's own —
// tile scratch comes from the free list, accumulator tables follow the
// groups held — so B/op and allocs/op should not move with the row count.
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
// RunBatchScheduled, on the CPU and the GPU engine, a 4-GPU fleet and the
// default hybrid split, every member priced from its seats. ns/op and allocs
// are the batch's; batch/solo is its wall clock over that of the same eight
// members' solo RunScheduled calls (base = solo), so a batch that scans once
// reads below 1 and one that re-executed every member would read near 2.
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
	fl := fleet.Spec{GPUs: 4, Link: fleet.NVLink()}
	for _, c := range []struct {
		name     string
		opts     RunOptions
		schedule func(p *Plan, o RunOptions) (sched.Schedule, error)
	}{
		{"cpu", RunOptions{}, func(p *Plan, o RunOptions) (sched.Schedule, error) { return p.ScheduleEngine(EngineCPU, o), nil }},
		{"gpu", RunOptions{}, func(p *Plan, o RunOptions) (sched.Schedule, error) { return p.ScheduleEngine(EngineGPU, o), nil }},
		{"fleet4", RunOptions{Partition: PartitionOptions{Partitions: fl.GPUs}},
			func(p *Plan, o RunOptions) (sched.Schedule, error) { return p.ScheduleFleet(fl, o) }},
		{"hybrid", RunOptions{Partition: PartitionOptions{Partitions: 16}}, func(p *Plan, o RunOptions) (sched.Schedule, error) {
			s, _, err := p.ScheduleHybrid(fleet.Spec{GPUs: 1}, -1, o)
			return s, err
		}},
	} {
		scheduleOf := func(p *Plan) (sched.Schedule, error) { return c.schedule(p, c.opts) }
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var batch, solo time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := RunBatchScheduled(plans, c.opts, scheduleOf); err != nil {
					b.Fatal(err)
				}
				batch += time.Since(t0)
				b.StopTimer()
				t0 = time.Now()
				for _, p := range plans {
					s, err := scheduleOf(p)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := p.RunScheduled(s); err != nil {
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

// TestTileLinesMatchFrameLines pins the line masks every engine's traffic is
// counted from against the storage layout itself: for plain tiles and packed
// frames of every width (a constant frame occupies no line), full and
// partial, a read of every row and sparse and dense selections count exactly
// the distinct 64 B and 128 B lines pack.Frames.LineOf places the selected
// rows on — a sparse selective read far below the full frame, a dense one
// never above it.
func TestTileLinesMatchFrameLines(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	distinct := func(sel []int32, line func(int) int64) int64 {
		seen := map[int64]bool{}
		for _, i := range sel {
			if l := line(int(i)); l >= 0 {
				seen[l] = true
			}
		}
		return int64(len(seen))
	}
	for _, n := range []int{ssb.MorselAlign, 777} {
		for width := 0; width <= 32; width++ {
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(rng.Int63n(int64(1) << width))
			}
			fr := pack.NewFrames(vals, ssb.MorselAlign)
			if got := fr.Frame(0).Width(); got != uint(width) && width > 0 {
				continue // the draw missed the top bit: another width's case
			}
			w := fr.Frame(0).Width()
			all := make([]int32, n)
			for i := range all {
				all[i] = int32(i)
			}
			sparse, dense := []int32{}, []int32{}
			for i := range all {
				if i%256 == 3 {
					sparse = append(sparse, int32(i))
				}
				if i%3 != 0 {
					dense = append(dense, int32(i))
				}
			}
			for name, sel := range map[string][]int32{"all": all, "sparse": sparse, "dense": dense} {
				m := selLines(sel, w)
				if name == "all" && fullLines(n, w) != m {
					t.Errorf("n=%d width %d: fullLines %x, a read of every row %x", n, w, fullLines(n, w), m)
				}
				want64 := distinct(sel, func(i int) int64 { return fr.LineOf(i, 64) })
				want128 := distinct(sel, func(i int) int64 { return fr.LineOf(i, 128) })
				if m.count() != want64 || m.pairs() != want128 {
					t.Errorf("n=%d width %d %s: %d/%d lines of 64/128 B, the frame places them on %d/%d",
						n, w, name, m.count(), m.pairs(), want64, want128)
				}
				if full := fr.Bytes(); m.pairs()*128 > full+128 || (name == "sparse" && w >= 8 && m.pairs()*128 >= full) {
					t.Errorf("n=%d width %d %s: %d B of 128 B lines against a %d B frame", n, w, name, m.pairs()*128, full)
				}
			}
			if w == 32 {
				// Plain tiles are stored 32 bits a row: the same mask.
				plain := distinct(sparse, func(i int) int64 { return int64(i >> 4) })
				if selLines(sparse, 32).count() != plain {
					t.Errorf("n=%d: plain sparse read counts %d lines, want %d", n, selLines(sparse, 32).count(), plain)
				}
			}
		}
	}
}
