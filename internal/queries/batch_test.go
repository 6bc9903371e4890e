package queries

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"crystal/internal/fleet"
	"crystal/internal/queries/queriestest"
	"crystal/internal/sched"
	"crystal/internal/ssb"
	"crystal/internal/trace"
)

// almostEq is the float tolerance for sums of per-member shares: the shares
// are products of exact solo seconds with a rational ratio, so their sum can
// differ from the recomputed total only by accumulation order.
func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestApportionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(8)
		weights := make([]int64, n)
		var sumW int64
		for i := range weights {
			weights[i] = int64(r.Intn(1000))
			sumW += weights[i]
		}
		total := int64(0)
		if sumW > 0 {
			total = int64(r.Int63n(sumW + 1)) // shared scan: total <= sum of solos
		}
		got := apportion(total, weights)
		var sum int64
		for i, v := range got {
			sum += v
			if v < 0 {
				t.Fatalf("trial %d: negative share %d at %d", trial, v, i)
			}
			if v > weights[i] {
				t.Fatalf("trial %d: share %d exceeds weight %d at %d (total=%d weights=%v)",
					trial, v, weights[i], i, total, weights)
			}
		}
		if sum != total {
			t.Fatalf("trial %d: shares sum to %d, want %d (weights=%v got=%v)", trial, sum, total, weights, got)
		}
	}
	// Determinism: equal inputs, equal splits.
	a := apportion(100, []int64{3, 3, 3})
	b := apportion(100, []int64{3, 3, 3})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("apportion not deterministic: %v vs %v", a, b)
		}
	}
}

func TestScanFootprintCompatible(t *testing.T) {
	q1, err := ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	q41, err := ByID("q4.1")
	if err != nil {
		t.Fatal(err)
	}
	fp := ScanFootprint(&q1)
	if len(fp) == 0 {
		t.Fatal("q1.1 has an empty scan footprint")
	}
	if !Compatible(&q1, &q1) {
		t.Error("a query must be compatible with itself")
	}
	if !Compatible(&q41, &q41) {
		t.Error("q4.1 must be compatible with itself")
	}
	// Synthetic disjoint pair: one reads only revenue, the other only
	// extprice+discount — no shared fact column, nothing to deduplicate.
	rev := Query{ID: "rev", Agg: AggSumRevenue}
	extdisc := Query{ID: "extdisc", Agg: AggSumExtDisc}
	if Compatible(&rev, &extdisc) {
		t.Errorf("disjoint footprints reported compatible: %v vs %v",
			ScanFootprint(&rev), ScanFootprint(&extdisc))
	}
}

// TestDifferentialBatchAgree is the shared-scan batching differential
// harness: seeded batches of 2-8 compatible queries must produce, for every
// member, rows AND simulated seconds identical to the member's solo run of
// the same schedule — across engines, partition counts, packed/plain
// encodings, fleet shapes and hybrid splits, ORDER BY/LIMIT included — while
// the batch's shared traffic never exceeds the sum of the solo scans and the
// per-member shares sum exactly back to the batch totals. Its two subtests
// pin what pricing single-engine members from their seat rests on: the priced
// member deep-equals the executed solo run over a fixed matrix, and the batch
// really scans once.
func TestDifferentialBatchAgree(t *testing.T) {
	t.Run("priced", pricedEqualsExecuted)
	t.Run("scans once", batchScansOnce)
	const rounds = 24
	r := rand.New(rand.NewSource(20260808))
	subadditive := 0
	for round := 0; round < rounds; round++ {
		size := 2 + r.Intn(7)
		qs := make([]Query, size)
		plans := make([]*Plan, size)
		for i := range qs {
			qs[i] = RandomQuery(r, diffDS, round*16+i, GenOptions{Extended: round%2 == 1})
			if err := qs[i].Validate(); err != nil {
				t.Fatalf("round %d: invalid generated query: %v", round, err)
			}
			plans[i] = Compile(diffDS, qs[i])
		}

		parts := []int{2, 7, 16, 64}[round%4]
		opts := RunOptions{Partition: PartitionOptions{Partitions: parts}, Trace: true}
		if round%3 == 1 {
			opts.Partition.Packed = diffPacked
		}
		gpus := []int{1, 2, 4, 8}[r.Intn(4)]
		link := fleet.Interconnects()[r.Intn(2)]
		fl := fleet.Spec{GPUs: gpus, Link: link}
		frac := []float64{-1, 0.25, 0.5, 0.75}[r.Intn(4)]

		// Fleet and hybrid schedules raise small partition counts so every arm
		// can own a morsel; the batch entry wants the shared pass's options to
		// carry the raised count.
		raised := func(floor int) RunOptions {
			o := opts
			o.Partition.Partitions = max(parts, floor)
			return o
		}
		fleetOpts, hybridOpts := raised(gpus), raised(gpus+1)
		type placementRun struct {
			label    string
			opts     RunOptions
			schedule func(p *Plan) (sched.Schedule, error)
		}
		engine := Engines()[round%len(Engines())]
		if opts.Partition.Packed != nil {
			engine = EngineCoproc
		}
		runs := []placementRun{
			{
				label:    fmt.Sprintf("engine=%s parts=%d packed=%v", engine, parts, opts.Partition.Packed != nil),
				opts:     opts,
				schedule: func(p *Plan) (sched.Schedule, error) { return p.ScheduleEngine(engine, opts), nil },
			},
			{
				label:    fmt.Sprintf("fleet %dx%s parts=%d packed=%v", gpus, link.Name, parts, opts.Partition.Packed != nil),
				opts:     fleetOpts,
				schedule: func(p *Plan) (sched.Schedule, error) { return p.ScheduleFleet(fl, fleetOpts) },
			},
			{
				label: fmt.Sprintf("hybrid frac=%v %dx%s parts=%d", frac, gpus, link.Name, parts),
				opts:  hybridOpts,
				schedule: func(p *Plan) (sched.Schedule, error) {
					s, _, err := p.ScheduleHybrid(fl, frac, hybridOpts)
					return s, err
				},
			},
		}
		for _, pr := range runs {
			br, err := RunBatchScheduled(plans, pr.opts, pr.schedule)
			if err != nil {
				t.Fatalf("round %d %s: batch failed: %v", round, pr.label, err)
			}
			if len(br.Members) != size {
				t.Fatalf("round %d %s: %d members, want %d", round, pr.label, len(br.Members), size)
			}
			var shareSum float64
			var scanSum, soloSum int64
			for i, m := range br.Members {
				label := fmt.Sprintf("round %d %s member %d (%s)", round, pr.label, i, qs[i].ID)
				sc, err := pr.schedule(plans[i])
				if err != nil {
					t.Fatalf("%s: solo schedule failed: %v", label, err)
				}
				sr, err := plans[i].RunScheduled(sc)
				if err != nil {
					t.Fatalf("%s: solo failed: %v", label, err)
				}
				// Full identity: rows, order, every aggregate value, and the
				// member's reported Seconds equal to its solo schedule's.
				if !m.Result.Equal(sr.Result) {
					t.Errorf("%s: batched rows differ from solo run", label)
				}
				queriestest.SameRun(t, label, m.Result, sr.Result)
				if m.ShareSeconds > sr.Result.Seconds*(1+1e-9) {
					t.Errorf("%s: share %.12f exceeds solo %.12f", label, m.ShareSeconds, sr.Result.Seconds)
				}
				shareSum += m.ShareSeconds
				scanSum += m.ScanBytes
				soloSum += m.SoloScanBytes
			}
			if !almostEq(shareSum, br.Seconds) {
				t.Errorf("round %d %s: shares sum %.12f, batch seconds %.12f", round, pr.label, shareSum, br.Seconds)
			}
			if scanSum != br.SharedScanBytes {
				t.Errorf("round %d %s: member scan bytes sum %d, shared %d", round, pr.label, scanSum, br.SharedScanBytes)
			}
			if soloSum != br.SoloScanBytes {
				t.Errorf("round %d %s: member solo bytes sum %d, total %d", round, pr.label, soloSum, br.SoloScanBytes)
			}
			if br.SharedScanBytes > br.SoloScanBytes {
				t.Errorf("round %d %s: shared scan %d exceeds sum of solos %d", round, pr.label, br.SharedScanBytes, br.SoloScanBytes)
			}
			if br.SharedScanBytes < br.SoloScanBytes {
				subadditive++
			}
			if br.Trace == nil {
				t.Fatalf("round %d %s: no batch trace", round, pr.label)
			}
			if err := trace.VerifyBatch(br.Trace); err != nil {
				t.Errorf("round %d %s: batch trace invariant: %v", round, pr.label, err)
			}
		}
	}
	// The harness is only load-bearing if batching actually deduplicates
	// traffic most of the time (generated queries share hot fact columns).
	if subadditive < rounds {
		t.Errorf("only %d/%d batch runs were strictly subadditive; batches too disjoint", subadditive, rounds*3)
	}
}

// pricedStatements are the statements of the priced-equals-executed matrix:
// the catalog, a multi-aggregate statement (raw accumulator vectors cross the
// seat) and an ORDER BY ... LIMIT one (the sort runs once, after the seat).
func pricedStatements(t *testing.T) []Query {
	t.Helper()
	qs := All()
	multi, err := ByID("q2.1")
	if err != nil {
		t.Fatal(err)
	}
	multi.ID = "multi"
	multi.Aggs = []AggSpec{{Func: FuncSum, Expr: AggSumRevenue}, {Func: FuncAvg, Expr: AggSumRevenue}, {Func: FuncCount}}
	top, err := ByID("q3.1")
	if err != nil {
		t.Fatal(err)
	}
	top.ID = "top"
	top.OrderBy = []OrderKey{{Item: 0, Desc: true}, {Item: -1, Group: 0}}
	top.Limit = 5
	for _, q := range []Query{multi, top} {
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}
	return append(qs, multi, top)
}

// seatPlacement is one placement of the priced-equals-executed matrix:
// floor is the partition count its schedule raises a smaller one to, which
// the batch's options must carry.
type seatPlacement struct {
	name     string
	floor    int
	schedule func(p *Plan, opts RunOptions) (sched.Schedule, error)
}

// seatPlacements are the six engines, 2- and 4-GPU fleets over each
// interconnect, and the default hybrid split (one GPU over PCIe, the
// throughput-balanced fraction).
func seatPlacements() []seatPlacement {
	var out []seatPlacement
	for _, e := range Engines() {
		out = append(out, seatPlacement{string(e), 0, func(p *Plan, o RunOptions) (sched.Schedule, error) {
			return p.ScheduleEngine(e, o), nil
		}})
	}
	for _, gpus := range []int{2, 4} {
		for _, link := range fleet.Interconnects() {
			fl := fleet.Spec{GPUs: gpus, Link: link}
			out = append(out, seatPlacement{fmt.Sprintf("fleet %dx%s", gpus, link.Name), gpus,
				func(p *Plan, o RunOptions) (sched.Schedule, error) { return p.ScheduleFleet(fl, o) }})
		}
	}
	return append(out, seatPlacement{"hybrid", 2, func(p *Plan, o RunOptions) (sched.Schedule, error) {
		s, _, err := p.ScheduleHybrid(fleet.Spec{GPUs: 1}, -1, o)
		return s, err
	}})
}

// pricedEqualsExecuted is the matrix behind "a batch member is priced from
// its seats": statements x every placement (seatPlacements) x {plain,
// packed} x {monolithic, 7 morsels, a clustered copy on which zone maps
// prune}. The member's whole ScheduledResult — rows, Seconds bit for bit,
// Morsels, Pruned, Packed, Ordered, Executors, merge pricing — deep-equals
// the solo RunScheduled of the same schedule, and its trace verifies and
// holds one sort span exactly when the statement orders.
func pricedEqualsExecuted(t *testing.T) {
	stmts := pricedStatements(t)
	clustered := diffDS.ClusterBy("orderdate")
	layouts := []struct {
		name   string
		ds     *ssb.Dataset
		packed *ssb.PackedFact
		parts  int
		prunes bool
	}{
		{"monolithic", diffDS, diffPacked, 0, false},
		{"7 morsels", diffDS, diffPacked, 7, false},
		{"clustered", clustered, clustered.Pack(), 16, true},
	}
	for _, lay := range layouts {
		plans := make([]*Plan, len(stmts))
		for i, q := range stmts {
			plans[i] = Compile(lay.ds, q)
		}
		for _, packed := range []bool{false, true} {
			for _, pl := range seatPlacements() {
				opts := RunOptions{Partition: PartitionOptions{Partitions: max(lay.parts, pl.floor)}, Trace: true}
				if packed {
					opts.Partition.Packed = lay.packed
				}
				scheduleOf := func(p *Plan) (sched.Schedule, error) { return pl.schedule(p, opts) }
				run := fmt.Sprintf("%s packed=%v %s", lay.name, packed, pl.name)
				br, err := RunBatchScheduled(plans, opts, scheduleOf)
				if err != nil {
					t.Fatalf("%s: %v", run, err)
				}
				if err := trace.VerifyBatch(br.Trace); err != nil {
					t.Errorf("%s: batch trace invariant: %v", run, err)
				}
				pruned := 0
				for i, m := range br.Members {
					label := run + " " + stmts[i].ID
					sc, err := scheduleOf(plans[i])
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					solo, err := plans[i].RunScheduled(sc)
					if err != nil {
						t.Fatalf("%s: solo failed: %v", label, err)
					}
					if math.Float64bits(m.Result.Seconds) != math.Float64bits(solo.Result.Seconds) {
						t.Errorf("%s: priced seconds %x, executed %x", label,
							math.Float64bits(m.Result.Seconds), math.Float64bits(solo.Result.Seconds))
					}
					if err := trace.Verify(m.ScheduledResult.Trace); err != nil {
						t.Errorf("%s: member run trace invariant: %v", label, err)
					}
					sorts := 0
					m.Trace.Walk(func(sp *trace.Span) {
						if sp.Phase == trace.PhaseSort {
							sorts++
						}
					})
					if want := btoi(len(stmts[i].OrderBy) > 0); sorts != want {
						t.Errorf("%s: %d sort spans in the member's tree, want %d", label, sorts, want)
					}
					// The raw accumulator table is the merge's, for a single SUM
					// and for a list alike: a reply that carried it would pin it
					// for as long as a cache or a flight leader holds the reply.
					if m.Result.accs != nil || solo.Result.accs != nil {
						t.Errorf("%s: RunScheduled handed out its raw accumulator table", label)
					}
					// Span trees carry wall clocks; everything else must match.
					got, want := *m.ScheduledResult, *solo
					got.Trace, want.Trace = nil, nil
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: priced member differs from the executed solo run:\n got %+v %+v\nwant %+v %+v",
							label, got, *got.Result, want, *want.Result)
					}
					pruned += m.Result.Pruned
				}
				if lay.prunes && pruned == 0 {
					t.Errorf("%s: no morsel pruned; the clustered leg pins nothing", run)
				}
			}
		}
	}
}

// refusingGate counts helper requests and grants none: sim.RunWithHelpers
// stops asking at the first refusal, so it sees exactly one TryAcquire per
// scanKernel pass that has work for a helper.
type refusingGate struct{ asked atomic.Int64 }

func (g *refusingGate) TryAcquire() bool { g.asked.Add(1); return false }
func (g *refusingGate) Release()         {}

// batchScansOnce pins the point of seating: an eight-member batch on any
// placement of seatPlacements — the six engines, 2- and 4-GPU fleets, the
// default hybrid split — makes one scanKernel pass and nothing else: no
// member, device or arm scans on its own.
func batchScansOnce(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || testDS.Lineorder.Rows() < 2*chunkRows {
		t.Skip("needs a helper slot and a table of at least two chunks to observe passes")
	}
	plans := make([]*Plan, 8)
	for i, q := range All()[:8] {
		plans[i] = Compile(testDS, q)
	}
	for _, pl := range seatPlacements() {
		gate := &refusingGate{}
		opts := RunOptions{Partition: PartitionOptions{Partitions: 7, Limiter: gate}}
		if _, err := RunBatchScheduled(plans, opts, func(p *Plan) (sched.Schedule, error) { return pl.schedule(p, opts) }); err != nil {
			t.Fatal(err)
		}
		if got := gate.asked.Load(); got != 1 {
			t.Errorf("%s batch of %d: %d scan passes, want 1", pl.name, len(plans), got)
		}
	}
}

// TestScheduleScansOnce pins that a solo run scans once whatever its shape:
// a 4-GPU fleet run and a default hybrid run each make one scanKernel pass,
// every device and arm priced from its seat in it. The table is cut fine
// enough that every busy executor owns at least two scan chunks, so a pass
// of an executor's own would ask for a helper too: scanning per executor
// reads 4 and 2 passes here.
func TestScheduleScansOnce(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a helper slot to observe passes")
	}
	q, err := ByID("q2.1")
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(testDS, q)
	for _, c := range []struct {
		name      string
		executors int
		schedule  func(RunOptions) (sched.Schedule, error)
	}{
		{"fleet 4", 4, func(o RunOptions) (sched.Schedule, error) {
			return p.ScheduleFleet(fleet.Spec{GPUs: 4, Link: fleet.NVLink()}, o)
		}},
		{"hybrid", 2, func(o RunOptions) (sched.Schedule, error) {
			s, _, err := p.ScheduleHybrid(fleet.Spec{GPUs: 1}, -1, o)
			return s, err
		}},
	} {
		gate := &refusingGate{}
		opts := RunOptions{Partition: PartitionOptions{Partitions: 64, Limiter: gate}}
		s, err := c.schedule(opts)
		if err != nil {
			t.Fatal(err)
		}
		ms, busy := p.morselRun(opts), 0
		for ai, a := range s.Assignments {
			chunks := 0
			for _, mi := range a.Morsels {
				if !ms.pruned[mi] {
					chunks += (ms.morsels[mi].Rows() + chunkRows - 1) / chunkRows
				}
			}
			if len(a.Morsels) > 0 {
				busy++
			}
			if chunks < 2 {
				t.Fatalf("%s: assignment %d owns %d scan chunks; the case needs two each", c.name, ai, chunks)
			}
		}
		if busy != c.executors {
			t.Fatalf("%s: %d busy executors, want %d", c.name, busy, c.executors)
		}
		if _, err := p.RunScheduled(s); err != nil {
			t.Fatal(err)
		}
		if got := gate.asked.Load(); got != 1 {
			t.Errorf("%s: %d scan passes, want 1", c.name, got)
		}
	}
}

// TestBatchSingletonIdentity pins the degenerate batch: one member, whose
// share is its entire solo run — bytes and seconds exactly, no discount —
// on the GPU and on the CPU engine, both priced from their seat.
func TestBatchSingletonIdentity(t *testing.T) {
	q, err := ByID("q2.1")
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(diffDS, q)
	opts := RunOptions{Partition: PartitionOptions{Partitions: 7}}
	for _, e := range []Engine{EngineGPU, EngineCPU} {
		br, err := RunBatch([]*Plan{p}, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := p.RunScheduled(p.ScheduleEngine(e, opts))
		if err != nil {
			t.Fatal(err)
		}
		m := br.Members[0]
		queriestest.SameRun(t, "singleton batch on "+string(e), m.Result, sr.Result)
		if m.ShareSeconds != sr.Result.Seconds {
			t.Errorf("%s: singleton share %.12f != solo %.12f", e, m.ShareSeconds, sr.Result.Seconds)
		}
		if br.Seconds != m.ShareSeconds {
			t.Errorf("%s: batch seconds %.12f != single share %.12f", e, br.Seconds, m.ShareSeconds)
		}
		if m.ScanBytes != m.SoloScanBytes || br.SharedScanBytes != br.SoloScanBytes {
			t.Errorf("%s: singleton scan bytes split: member %d/%d, batch %d/%d",
				e, m.ScanBytes, m.SoloScanBytes, br.SharedScanBytes, br.SoloScanBytes)
		}
	}
}

// TestBatchSharedTrafficStrictlyLess pins the batching win the benchmark
// gate holds: two overlapping catalog queries batched onto one scan stream
// strictly less than their solo scans combined, and the batch's simulated
// seconds undercut the solo sum by the same mechanism.
func TestBatchSharedTrafficStrictlyLess(t *testing.T) {
	ids := []string{"q1.1", "q1.2", "q1.3"}
	plans := make([]*Plan, len(ids))
	var soloSeconds float64
	opts := RunOptions{Partition: PartitionOptions{Partitions: 7}}
	for i, id := range ids {
		q, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = Compile(diffDS, q)
		sr, err := plans[i].RunScheduled(plans[i].ScheduleEngine(EngineGPU, opts))
		if err != nil {
			t.Fatal(err)
		}
		soloSeconds += sr.Result.Seconds
	}
	br, err := RunBatch(plans, EngineGPU, opts)
	if err != nil {
		t.Fatal(err)
	}
	if br.SharedScanBytes >= br.SoloScanBytes {
		t.Errorf("shared scan %d not strictly less than solo sum %d", br.SharedScanBytes, br.SoloScanBytes)
	}
	if br.Seconds >= soloSeconds {
		t.Errorf("batch seconds %.9f not strictly less than solo sum %.9f", br.Seconds, soloSeconds)
	}
}

// TestBatchRejects pins the batch entry's checks: no members, members
// compiled against different datasets, a member whose schedule cannot be
// built, and a member scheduled over another extent than the shared pass's —
// a different morsel map (what a fleet schedule's silent partition raise
// produces when the caller's options do not carry the raised count), the
// other fact encoding, a different pruning mask or another plan — or on an
// executor of another package. Each would pair solo seconds for one extent
// with traffic apportioned from another, or price a seat that was not
// scanned for the schedule (or that nothing can price); the error names the
// member.
func TestBatchRejects(t *testing.T) {
	q, err := ByID("q1.1")
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(diffDS, q)
	engine := func(p *Plan) (sched.Schedule, error) { return p.ScheduleEngine(EngineCPU, RunOptions{}), nil }
	if _, err := RunBatchScheduled(nil, RunOptions{}, engine); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := RunBatchScheduled([]*Plan{plan, Compile(testDS, q)}, RunOptions{}, engine); err == nil {
		t.Error("members compiled against different datasets accepted")
	}
	fl := fleet.Spec{GPUs: 4, Link: fleet.NVLink()}
	if _, err := RunBatchScheduled([]*Plan{plan}, RunOptions{}, func(p *Plan) (sched.Schedule, error) {
		return p.ScheduleFleet(fleet.Spec{}, RunOptions{})
	}); err == nil {
		t.Error("schedule error not propagated")
	}
	opts := RunOptions{Partition: PartitionOptions{Partitions: 2}}
	fleetOf := func(p *Plan) (sched.Schedule, error) { return p.ScheduleFleet(fl, opts) }
	if _, err := RunBatchScheduled([]*Plan{plan}, opts, fleetOf); err == nil {
		t.Error("member scheduled over 4 morsels accepted into a 2-morsel shared pass")
	}
	opts.Partition.Partitions = fl.GPUs
	if _, err := RunBatchScheduled([]*Plan{plan}, opts, fleetOf); err != nil {
		t.Errorf("raised partition count rejected: %v", err)
	}

	plain := RunOptions{Partition: PartitionOptions{Partitions: 16}}
	packed := plain
	packed.Partition.Packed = diffPacked
	repacked := plain
	repacked.Partition.Packed = diffDS.Pack()
	clustered := Compile(diffDS.ClusterBy("orderdate"), q) // zone maps prune q1.1 here, never on diffDS
	twin := Compile(diffDS, q)
	for _, c := range []struct {
		name     string
		pass     RunOptions
		schedule func(p *Plan) sched.Schedule
		want     string
	}{
		{"packed schedule into a plain pass", plain,
			func(p *Plan) sched.Schedule { return p.ScheduleEngine(EngineCPU, packed) }, "packed=true"},
		{"plain schedule into a packed pass", packed,
			func(p *Plan) sched.Schedule { return p.ScheduleEngine(EngineGPU, plain) }, "packed=false"},
		{"schedule over another packed encoding", packed,
			func(p *Plan) sched.Schedule { return p.ScheduleEngine(EngineCPU, repacked) }, "different packed encoding"},
		{"schedule with a different pruning mask", plain,
			func(*Plan) sched.Schedule { return clustered.ScheduleEngine(EngineCPU, plain) }, "pruning mask"},
		{"fleet schedule with a different pruning mask", plain,
			func(*Plan) sched.Schedule {
				s, err := clustered.ScheduleFleet(fl, plain)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}, "pruning mask"},
		{"schedule of another plan", plain,
			func(*Plan) sched.Schedule { return twin.ScheduleEngine(EngineCPU, plain) }, "different plan"},
		{"schedule on a foreign executor", plain,
			func(p *Plan) sched.Schedule { return foreignSchedule(p.ScheduleEngine(EngineCPU, plain)) }, "prices no scan"},
	} {
		_, err := RunBatchScheduled([]*Plan{twin, plan}, c.pass, func(p *Plan) (sched.Schedule, error) {
			if p == twin {
				return p.ScheduleEngine(EngineCPU, c.pass), nil
			}
			return c.schedule(p), nil
		})
		if err == nil {
			t.Errorf("%s accepted", c.name)
		} else if !strings.Contains(err.Error(), "member 1 (q1.1)") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name member 1 and %q", c.name, err, c.want)
		}
	}
}

// foreignExec is an executor of no engine of this package.
type foreignExec struct{}

func (foreignExec) Kind() sched.Kind { return sched.KindCPU }
func (foreignExec) Device() int      { return -1 }

// foreignSchedule is s with every executor replaced by a foreignExec.
func foreignSchedule(s sched.Schedule) sched.Schedule {
	s.Assignments = slices.Clone(s.Assignments)
	for i := range s.Assignments {
		s.Assignments[i].Executor = foreignExec{}
	}
	return s
}

// TestRunScheduledHandBuilt pins what a solo run makes of schedules built
// outside the Schedule* builders: one holding an executor of another
// package is refused with an error, not run — nothing can price its seat —
// and one whose only assignment is idle scans nothing and yields the
// empty result.
func TestRunScheduledHandBuilt(t *testing.T) {
	q, err := ByID("q2.1")
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(diffDS, q)
	if _, err := p.RunScheduled(foreignSchedule(p.ScheduleEngine(EngineGPU, RunOptions{}))); err == nil || !strings.Contains(err.Error(), "prices no scan") {
		t.Errorf("foreign executor: err %v, want a refusal", err)
	}
	idle := p.ScheduleEngine(EngineCPU, RunOptions{})
	idle.Morsels, idle.Assignments[0].Morsels = 0, nil
	sr, err := p.RunScheduled(idle)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Result.Rows()) != 0 || sr.Result.Seconds != 0 || len(sr.Executors) != 1 || sr.Executors[0].Rows != 0 {
		t.Errorf("idle schedule: %d rows, %v s, executors %+v; want nothing run", len(sr.Result.Rows()), sr.Result.Seconds, sr.Executors)
	}
}
