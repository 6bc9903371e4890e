package queries

import (
	"fmt"
	"slices"
	"time"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/sched"
	"crystal/internal/ssb"
	"crystal/internal/trace"
)

// ExecutorResult is one executor's slice of a scheduled run: what it was
// assigned, what it scanned, and its share of the simulated time and
// interconnect traffic. It is the placement-agnostic telemetry every run
// path reports (FleetDevice is its fleet-shaped rendering).
type ExecutorResult struct {
	// Kind classifies the executor; Device is its fleet index (-1 for host
	// executors).
	Kind   sched.Kind `json:"kind"`
	Device int        `json:"device"`
	// Morsels is the number of morsels assigned; Pruned counts those its
	// zone maps skipped, and Rows the fact rows it actually scanned.
	Morsels int   `json:"morsels"`
	Pruned  int   `json:"pruned"`
	Rows    int64 `json:"rows"`
	// Seconds is the executor's simulated time, spill shipment overlap
	// included.
	Seconds float64 `json:"seconds"`
	// ShipBytes is the interconnect traffic the executor's host-resident
	// morsels cost, and ResidentCols the shipments residency elided.
	ShipBytes    int64 `json:"ship_bytes"`
	ResidentCols int   `json:"resident_cols"`
	// Groups is the size of the executor's partial aggregate table.
	Groups int `json:"groups"`
}

// ScheduledResult is the outcome of one scheduled execution: the merged
// result plus the per-executor telemetry and the merge-phase pricing —
// the one result shape of every placement (single engine, fleet, hybrid).
type ScheduledResult struct {
	// Result is the merged result: Seconds is the schedule makespan (the
	// slowest executor plus the partial-aggregate merge), TransferBytes
	// the total interconnect shipment and ResidentCols the shipments
	// residency elided.
	Result *Result
	// Executors has one entry per assignment, idle executors included.
	Executors []ExecutorResult
	// MergeBytes is the partial-aggregate traffic that crossed the
	// interconnect (16 bytes per group per merging executor) and
	// MergeSeconds its transfer time.
	MergeBytes   int64
	MergeSeconds float64
	// Trace is the run's span tree, nil unless the schedule asked for
	// tracing (RunOptions.Trace): a run span with schedule, per-assignment
	// execute (kernel/transfer children) and merge spans whose simulated
	// seconds and byte attributions reproduce this result exactly
	// (trace.Verify holds by construction).
	Trace *trace.Span
}

// restrict narrows the run to the given morsel indices: foreign morsels
// are marked pruned (the scan skips them, and a GPU pricing charges them
// nothing), so the restricted run scans exactly the owned live morsels.
// The full index set returns the receiver unchanged, which keeps
// single-executor schedules byte-identical to unscheduled runs.
func (ms *morselRun) restrict(idx []int) *morselRun {
	if len(idx) == len(ms.morsels) {
		return ms
	}
	prunedX := make([]bool, len(ms.morsels))
	for i := range prunedX {
		prunedX[i] = true
	}
	out := &morselRun{
		morsels: ms.morsels,
		pruned:  prunedX,
		lim:     ms.lim,
		packed:  ms.packed,
	}
	for _, mi := range idx {
		if ms.pruned[mi] {
			continue
		}
		prunedX[mi] = false
		out.live = append(out.live, ms.morsels[mi])
		out.scanned += int64(ms.morsels[mi].Rows())
	}
	return out
}

// scanSeat is one busy assignment's slice of a scanKernel pass: its raw
// rows, the access statistics its executor prices, and the restricted
// extent they were metered over.
type scanSeat struct {
	res *Result
	st  *pipeStats
	ms  *morselRun
}

// seatPricer is an executor of this package: it names the plan and the
// extent its assignments are scanned over, and prices a seat of that scan
// on its hardware. It never scans.
type seatPricer interface {
	sched.Executor
	extent() (*Plan, *morselRun)
	// price prices assignment a's seat: the kernel time, the interconnect
	// shipment's time and bytes (overlapped with the kernel, so the
	// executor's seconds are the max of the two times; zero when nothing
	// ships), and the column shipments residency elided.
	price(a sched.Assignment, seat *scanSeat) (kernel, ship float64, shipBytes int64, resident int)
}

// seatSchedules validates the schedules and runs one scanKernel pass for all
// of them: every busy assignment is a scan member of its own, its executor's
// plan over the executor's extent restricted to the assignment's morsels, so
// per-executor statistics come out of the pass with no metering of their
// own. The seats come back in schedule, then assignment order, one per
// assignment (zero for an idle one). Union line counts are kept only when
// more than one schedule rides the pass; otherwise union64 is nil. A
// schedule holding an executor of another package is refused: there is
// nothing to price its seat.
func seatSchedules(scheds []sched.Schedule) (seats []scanSeat, union64 map[string]int64, err error) {
	var members []scanMember
	for _, s := range scheds {
		if err := s.Validate(); err != nil {
			return nil, nil, err
		}
		for ai, a := range s.Assignments {
			x, ok := a.Executor.(seatPricer)
			if !ok {
				return nil, nil, fmt.Errorf("queries: assignment %d has executor %T, which prices no scan", ai, a.Executor)
			}
			var seat scanSeat
			if len(a.Morsels) > 0 { // idle: no launch, no seat
				p, ms := x.extent()
				seat.ms = ms.restrict(a.Morsels)
				members = append(members, scanMember{p: p, ms: seat.ms})
			}
			seats = append(seats, seat)
		}
	}
	if len(members) == 0 {
		return seats, nil, nil
	}
	raws, sts, union64 := scanKernel(members, len(scheds) > 1)
	i := 0
	for j := range seats {
		if seats[j].ms != nil { // busy, in member order
			seats[j].res, seats[j].st = raws[i], sts[i]
			i++
		}
	}
	return seats, union64, nil
}

// engineExecutor prices one engine's seat. It is the executor behind the
// single-placement schedules (partitioned runs, the coprocessor path) and
// the CPU arm of hybrid schedules.
type engineExecutor struct {
	p  *Plan
	ms *morselRun
	e  Engine
	// cache is the device memory of the coprocessor's resident set
	// (RunOptions.DeviceCacheBytes); other engines ignore it.
	cache int64
}

func (x engineExecutor) Kind() sched.Kind {
	switch x.e {
	case EngineGPU, EngineOmnisci:
		return sched.KindGPU
	case EngineCoproc:
		return sched.KindCoproc
	}
	return sched.KindCPU
}

func (x engineExecutor) Device() int { return -1 }

func (x engineExecutor) extent() (*Plan, *morselRun) { return x.p, x.ms }

// price prices the seat on the engine. The coprocessor overlaps the GPU
// kernel with its PCIe transfer, so its seconds are the slower of the two.
func (x engineExecutor) price(_ sched.Assignment, seat *scanSeat) (kernel, ship float64, shipBytes int64, resident int) {
	kernel = x.p.price(x.e, seat.st)
	if x.e == EngineCoproc {
		shipBytes, resident = x.p.coprocTransfer(seat.st, residentIn(seat.ms, x.cache))
		ship = device.TransferTime(shipBytes)
	}
	return kernel, ship, shipBytes, resident
}

// gpuDeviceExecutor prices one fleet device's seat, its shard's pass, on
// the device (priceGPU), so the device charges exactly its own traffic plus
// its one launch. Spilled morsels are host-resident: their referenced
// columns cross the link, overlapped with execution, except on packed runs
// the columns of the resident set in cache bytes (ResidentColumns), whose
// spilled range ships nothing. A device's spilled range of a column is
// never larger than the whole column, so what it pins stays within cache.
type gpuDeviceExecutor struct {
	p     *Plan
	ms    *morselRun
	dev   *device.Spec
	link  fleet.Interconnect
	idx   int
	cache int64
}

func (x *gpuDeviceExecutor) Kind() sched.Kind { return sched.KindGPU }

func (x *gpuDeviceExecutor) Device() int { return x.idx }

func (x *gpuDeviceExecutor) extent() (*Plan, *morselRun) { return x.p, x.ms }

func (x *gpuDeviceExecutor) price(a sched.Assignment, seat *scanSeat) (kernel, ship float64, shipBytes int64, resident int) {
	ms, res := x.ms, residentIn(x.ms, x.cache)
	for _, c := range x.p.Query.ReferencedFactColumns() {
		if slices.Contains(res, c) {
			if len(a.Spilled) > 0 {
				resident++
			}
			continue
		}
		for _, mi := range a.Spilled {
			if !ms.pruned[mi] { // zone maps are host-side: pruned morsels neither scan nor ship
				shipBytes += ssb.MorselColumnBytes(ms.packed, ms.morsels[mi], c)
			}
		}
	}
	// Spill shipment overlaps with execution, coprocessor style: the
	// slower of the two bounds the device.
	return x.p.priceGPU(x.dev, seat.st), x.link.TransferTime(shipBytes), shipBytes, resident
}

// ScheduleEngine places every morsel on a single engine executor (the
// coprocessor path included), with the fact table split into
// opts.Partition.Partitions zone-mapped morsels. Rows are identical at any
// partition count; simulated seconds are identical too whenever no morsel
// is pruned (morsel boundaries are tile-aligned, so the per-morsel traffic
// statistics sum exactly to the monolithic pass's), and strictly cheaper
// when zone maps skip morsels.
func (p *Plan) ScheduleEngine(e Engine, opts RunOptions) sched.Schedule {
	var t0 time.Time
	if opts.Trace {
		t0 = time.Now()
	}
	ms := p.morselRun(opts)
	all := make([]int, len(ms.morsels))
	for i := range all {
		all[i] = i
	}
	s := sched.Schedule{
		Assignments: []sched.Assignment{{
			Executor: engineExecutor{p: p, ms: ms, e: e, cache: opts.DeviceCacheBytes},
			Morsels:  all,
		}},
		Morsels: len(ms.morsels),
		Packed:  ms.packed != nil,
	}
	if opts.Trace {
		s.Trace = true
		s.BuildWall = time.Since(t0)
	}
	return s
}

// ScheduleFleet range-shards the morsels over the fleet's devices
// (fleet.Assign, spill accounting against each device's MemoryBytes): each
// device is priced as the tile-based GPU kernel over its own shard, run
// concurrently — one launch per device, every foreign tile skipped, so a
// device charges exactly its shard's traffic, which its seat in the run's
// one scan pass meters — and the partial aggregates merge on the host
// across the interconnect. Partitions below fl.GPUs are raised to
// fl.GPUs so every device gets a shard where the morsel count allows one.
//
// Rows are identical to a single-device run at any shard count. Simulated
// seconds follow the bandwidth model — near-linear scaling on scan-bound
// queries until the per-device launch and replicated dimension builds
// dominate, with the merge term growing with group cardinality and
// shrinking with interconnect bandwidth. Shards that exceed device memory
// degrade gracefully: the spilled morsels stay host-resident and their
// referenced columns cross the interconnect, priced like a coprocessor
// transfer (overlapped with execution, packed runs shipping packed bytes,
// and a column of the resident set in opts.DeviceCacheBytes shipping
// nothing). A positive
// opts.Fleet.MemoryBytes replaces each device's memory capacity.
func (p *Plan) ScheduleFleet(fl fleet.Spec, opts RunOptions) (sched.Schedule, error) {
	fl, err := fl.Normalized()
	if err != nil {
		return sched.Schedule{}, err
	}
	if opts.Fleet.MemoryBytes > 0 {
		d := *fl.Device
		d.MemoryBytes = opts.Fleet.MemoryBytes
		fl.Device = &d
	}
	var t0 time.Time
	if opts.Trace {
		t0 = time.Now()
	}
	if opts.Partition.Partitions < fl.GPUs {
		opts.Partition.Partitions = fl.GPUs
	}
	ms := p.morselRun(opts)

	// A shard's storage footprint is its full fact rows — every column,
	// because the device must serve any query against its shard — in
	// whichever encoding this run scans (ssb.MorselStorageBytes).
	shardBytes := func(m ssb.Morsel) int64 { return ssb.MorselStorageBytes(ms.packed, m) }
	shards := fleet.Assign(ms.morsels, fl.GPUs, fl.Device.MemoryBytes, shardBytes)

	s := sched.Schedule{Link: fl.Link, Morsels: len(ms.morsels), Packed: ms.packed != nil}
	for d := range shards {
		sh := &shards[d]
		s.Assignments = append(s.Assignments, sched.Assignment{
			Executor: &gpuDeviceExecutor{p: p, ms: ms, dev: fl.Device, link: fl.Link, idx: d, cache: opts.DeviceCacheBytes},
			Morsels:  sh.Morsels,
			Spilled:  sh.Spilled,
			Merge:    true,
		})
	}
	if opts.Trace {
		s.Trace = true
		s.BuildWall = time.Since(t0)
	}
	return s, nil
}

// RunScheduled is the single execution entry point: it scans every busy
// assignment in one pass (seatSchedules), has each executor price its seat,
// merges the partial aggregates key-wise on the host (slot-wise accumulator
// merges, every operator associative and commutative, so rows are identical
// to a monolithic run at any split; the first partial's table is adopted,
// not copied), takes the makespan over the concurrent executors, and prices
// the partial-aggregate merge of the link-crossing assignments. A query with
// ORDER BY then runs the sort phase on the placement's own hardware
// (executeSort) and appends its priced seconds. Every placement goes through
// this method, so scan, merge, sort, stats and telemetry behave identically
// across them.
func (p *Plan) RunScheduled(s sched.Schedule) (*ScheduledResult, error) {
	start := time.Now()
	seats, _, err := seatSchedules([]sched.Schedule{s})
	if err != nil {
		return nil, err
	}
	return p.runSeated(s, seats, start), nil
}

// runSeated is RunScheduled past the scan: it prices, merges and sorts the
// schedule's seats. start is when the run began (read only when tracing),
// so a solo run's span covers its pass.
func (p *Plan) runSeated(s sched.Schedule, seats []scanSeat, start time.Time) *ScheduledResult {
	q := p.Query
	out := &ScheduledResult{}
	merged := &Result{}
	var accs *sched.AccTable
	// Tracing is opt-in per schedule; the untraced path must not allocate a
	// single span, so every trace touch below is nil-guarded.
	var runSpan *trace.Span
	if s.Trace {
		runSpan = &trace.Span{Phase: trace.PhaseRun, Children: []*trace.Span{
			{Phase: trace.PhaseSchedule, Wall: s.BuildWall},
		}}
	}
	var makespan float64
	pruned := 0
	for i := range s.Assignments {
		a := s.Assignments[i]
		er := ExecutorResult{Kind: a.Executor.Kind(), Device: a.Executor.Device(), Morsels: len(a.Morsels)}
		var span *trace.Span
		if runSpan != nil {
			span = &trace.Span{
				Name:    sched.Label(er.Kind, er.Device),
				Phase:   trace.PhaseExecute,
				Morsels: len(a.Morsels),
			}
			runSpan.Children = append(runSpan.Children, span)
		}
		if len(a.Morsels) > 0 { // empty assignment: idle executor, no launch, no time
			var execStart time.Time
			if span != nil {
				execStart = time.Now()
			}
			seat := &seats[i]
			kernel, ship, shipBytes, resident := a.Executor.(seatPricer).price(a, seat)
			er.Seconds, er.ShipBytes, er.ResidentCols = max(kernel, ship), shipBytes, resident
			er.Pruned = len(a.Morsels) - len(seat.ms.live)
			er.Rows = seat.ms.scanned
			er.Groups = seat.res.accs.Len() // before the merge can adopt the table
			accs = p.agg.mergeTable(accs, seat.res.accs)
			if a.Merge {
				out.MergeBytes += int64(er.Groups) * aggRowBytes(&q)
			}
			makespan = max(makespan, er.Seconds)
			pruned += er.Pruned
			merged.TransferBytes += er.ShipBytes
			merged.ResidentCols += er.ResidentCols
			if span != nil {
				span.Wall = time.Since(execStart)
				span.Sim = er.Seconds
				span.Bytes = er.ShipBytes
				span.Rows = er.Rows
				span.Pruned = er.Pruned
				span.Children = append(span.Children, &trace.Span{
					Phase: trace.PhaseKernel, Sim: kernel,
				})
				if er.ShipBytes > 0 || ship > 0 {
					span.Children = append(span.Children, &trace.Span{
						Phase: trace.PhaseTransfer, Sim: ship, Bytes: er.ShipBytes,
					})
				}
			}
		}
		out.Executors = append(out.Executors, er)
	}
	finalizeGroups(&q, p.agg, accs, merged)
	if out.MergeBytes > 0 {
		out.MergeSeconds = s.Link.TransferTime(out.MergeBytes)
	}
	merged.Seconds = makespan + out.MergeSeconds
	// The ORDER BY phase runs on the placement's own hardware after the
	// merge; its priced stages extend the run's simulated seconds and, when
	// traced, become the run's sort span (one sort-pass child per stage, the
	// children summing exactly to the span).
	var so *sortOutcome
	if len(q.OrderBy) > 0 {
		var sortStart time.Time
		if runSpan != nil {
			sortStart = time.Now()
		}
		so = p.executeSort(s, resultRows(&q, merged))
		merged.Ordered = so.rows
		merged.Seconds += so.seconds
		if runSpan != nil {
			sp := &trace.Span{Phase: trace.PhaseSort, Sim: so.seconds, Wall: time.Since(sortStart)}
			for _, st := range so.stages {
				sp.Children = append(sp.Children, &trace.Span{
					Name: st.label, Phase: trace.PhaseSortPass, Sim: st.sim, Bytes: st.bytes,
				})
			}
			runSpan.Children = append(runSpan.Children, sp)
		}
	}
	merged.Morsels = s.Morsels
	merged.Pruned = pruned
	merged.Packed = s.Packed
	out.Result = merged
	if runSpan != nil {
		if out.MergeBytes > 0 {
			runSpan.Children = append(runSpan.Children, &trace.Span{
				Phase: trace.PhaseMerge, Sim: out.MergeSeconds, Bytes: out.MergeBytes,
			})
		}
		runSpan.Sim = merged.Seconds
		runSpan.Wall = time.Since(start)
		out.Trace = runSpan
	}
	return out
}
