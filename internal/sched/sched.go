// Package sched defines the scheduler abstraction every execution path of
// the repo runs through: a Schedule assigns zone-mapped morsel ranges to
// abstract Executors — CPU engine workers, GPU fleet devices, or the
// coprocessor path — and queries.Plan.RunScheduled scans every busy
// assignment in one pass, has each executor price its seat of that pass, and
// merges their partial aggregates on the host. Partitioned, fleet,
// coprocessor and hybrid CPU+GPU executions are all just schedules with
// different assignment shapes, so there is exactly one scan, merge, stats
// and telemetry path.
//
// The contract between a schedule and its runner:
//
//   - Every morsel index in [0, Morsels) appears in exactly one
//     assignment (Validate checks this), so partial aggregates are
//     disjoint integer sums and the host merge is exact: rows are
//     identical to a monolithic run at any split.
//   - An assignment's Spilled indices are the subset of its morsels whose
//     referenced columns are host-resident and must cross Link before the
//     executor can scan them; shipment overlaps execution, coprocessor
//     style, so the executor's time is the max of the two.
//   - An assignment with Merge set produces its partial aggregate table on
//     the far side of Link: the runner prices 16 bytes per group of
//     host-bound merge traffic for it. Host executors leave Merge unset
//     and merge for free.
//   - An executor does not scan: the runner meters its assignment as one
//     member of the shared pass (the executor's plan over exactly its
//     morsels) and the executor prices that seat's statistics on its
//     hardware. Executors report simulated time, not wall clock: the
//     runner's makespan is the slowest assignment, because assignments
//     model devices (and engine workers) running concurrently.
//
// The split helpers (CPUFraction, SplitHybrid) are the mechanism shared by
// the hybrid executor (queries.Plan.ScheduleHybrid) and the placement cost
// model (planner.HybridCost and BatchCost): both sides derive the CPU/GPU
// division from the same code, so the model can never price a placement the
// executor would not produce.
package sched

import (
	"fmt"
	"slices"
	"time"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/ssb"
)

// Kind classifies an executor for telemetry: a host CPU engine worker, a
// GPU fleet device, or the single-device coprocessor path.
type Kind string

// The executor kinds of the four placements (partitioned CPU, fleet GPU,
// coprocessor, hybrid = CPU + GPU together).
const (
	KindCPU    Kind = "cpu"
	KindGPU    Kind = "gpu"
	KindCoproc Kind = "coproc"
)

// Label names an executor for telemetry and trace spans: the kind alone
// for host executors ("cpu", "coproc"), kind plus fleet index for
// devices ("gpu0", "gpu3").
func Label(k Kind, device int) string {
	if device < 0 {
		return string(k)
	}
	return fmt.Sprintf("%s%d", k, device)
}

// AccTable is a flat accumulator table: group key -> a vector of 8-byte
// accumulator slots, every vector a window of one backing slice. It is the
// one carrier of raw aggregates between a kernel and the runner's merge —
// a scan worker's private table, one executor's seat of a pass, the merged
// table. A table has one owner at a time: a producer hands it over
// and the runner adopts the first one whole instead of copying it. A nil
// table is an empty one to Len and Each.
type AccTable struct {
	idx   map[int64]int32 // group key -> vector number
	vals  []int64         // vectors back to back, slots each
	slots int
}

// NewAccTable returns an empty table of slots-wide vectors with room for
// the given number of groups.
func NewAccTable(slots, groups int) *AccTable {
	return &AccTable{idx: make(map[int64]int32, groups), vals: make([]int64, 0, groups*slots), slots: slots}
}

// At returns key's accumulator vector, appending one when the key is new
// (fresh): its contents are then unspecified and the caller sets them to the
// merge identities. The slice is valid only until the next At, which may
// move the backing slice.
func (t *AccTable) At(key int64) (acc []int64, fresh bool) {
	i, ok := t.idx[key]
	if !ok {
		i = int32(len(t.idx))
		t.idx[key] = i
		t.vals = slices.Grow(t.vals, t.slots)[:len(t.vals)+t.slots]
	}
	lo := int(i) * t.slots
	return t.vals[lo : lo+t.slots : lo+t.slots], !ok
}

// Each calls fn for every (key, accumulator vector) pair in unspecified
// order. The slice aliases the table; fn must not call At.
func (t *AccTable) Each(fn func(key int64, acc []int64)) {
	if t == nil {
		return
	}
	for k, i := range t.idx {
		lo := int(i) * t.slots
		fn(k, t.vals[lo:lo+t.slots:lo+t.slots])
	}
}

// Len returns the number of groups held.
func (t *AccTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.idx)
}

// Executor is the hardware one assignment of morsel indices is priced on.
// Implementations live with their engines (package queries), which refuses
// a schedule holding any other; they must be safe for concurrent use, like
// the plans they wrap.
type Executor interface {
	// Kind classifies the executor for telemetry.
	Kind() Kind
	// Device is the fleet device index for GPU executors, -1 for host
	// executors.
	Device() int
}

// Assignment binds one executor to the morsel indices it owns.
type Assignment struct {
	// Executor prices the assignment.
	Executor Executor
	// Morsels are the owned morsel indices (into the schedule's morsel
	// list). An empty assignment is an idle executor: no launch, no time.
	Morsels []int
	// Spilled is the subset of Morsels that is host-resident: the
	// executor prices shipping the referenced columns of its unpruned
	// spilled morsels over the schedule's link, overlapped with execution.
	Spilled []int
	// Merge marks the partial aggregate as produced across the link: the
	// runner charges 16 bytes per group of merge traffic for it.
	Merge bool
}

// Schedule is a complete placement of one query's morsel list onto a set
// of executors.
type Schedule struct {
	// Assignments place every morsel on exactly one executor.
	Assignments []Assignment
	// Link is the interconnect spilled columns and merged partials cross.
	Link fleet.Interconnect
	// Morsels is the length of the morsel list the assignments index.
	Morsels int
	// Packed reports whether the run scans the bit-packed fact encoding
	// (stamped onto the merged result).
	Packed bool
	// Trace asks the runner to build a span tree for the execution; when
	// false the runner allocates nothing for tracing.
	Trace bool
	// BuildWall is the host wall-clock time the schedule builder spent
	// (morsel resolution, pruning, split/shard construction); stamped only
	// when Trace is set, and surfaced as the trace's schedule span.
	BuildWall time.Duration
}

// Validate checks the schedule's core invariant: every morsel index in
// [0, Morsels) appears in exactly one assignment, and each assignment's
// Spilled set is a subset of its Morsels. A schedule produced by the
// Plan.Schedule* builders always validates; the check is the safety net
// for hand-built schedules.
func (s Schedule) Validate() error {
	seen := make([]bool, s.Morsels)
	for ai := range s.Assignments {
		a := &s.Assignments[ai]
		owned := make(map[int]bool, len(a.Morsels))
		for _, mi := range a.Morsels {
			if mi < 0 || mi >= s.Morsels {
				return fmt.Errorf("sched: assignment %d owns morsel %d outside [0, %d)", ai, mi, s.Morsels)
			}
			if seen[mi] {
				return fmt.Errorf("sched: morsel %d assigned twice", mi)
			}
			seen[mi] = true
			owned[mi] = true
		}
		for _, mi := range a.Spilled {
			if !owned[mi] {
				return fmt.Errorf("sched: assignment %d spills morsel %d it does not own", ai, mi)
			}
		}
	}
	for mi, ok := range seen {
		if !ok {
			return fmt.Errorf("sched: morsel %d unassigned", mi)
		}
	}
	return nil
}

// Split is the hybrid division of a morsel list: the indices the host CPU
// engine scans and the indices the GPU fleet scans.
type Split struct {
	CPU []int
	GPU []int
}

// CPUFraction is the live-row fraction a hybrid schedule routes to the
// host CPU engine: the arms are balanced by resident scan throughput, so
// the CPU takes cpuBW / (cpuBW + gpus·gpuBW) of the scanned rows. The
// fraction is deliberately blind to the interconnect — data is
// host-resident, so the GPU arm's shipment cost is the schedule's price,
// not its shape, and HybridCost is what decides whether that price wins.
func CPUFraction(cpu, gpu *device.Spec, gpus int) float64 {
	if gpus < 1 {
		gpus = 1
	}
	total := cpu.ReadBandwidth + float64(gpus)*gpu.ReadBandwidth
	if total <= 0 {
		return 0
	}
	return cpu.ReadBandwidth / total
}

// SplitHybrid divides a morsel list between the CPU and GPU arms of a
// hybrid schedule, zone-map aware: pruned morsels go to the CPU arm (they
// cost nothing to scan, and keeping them host-side means the GPU arm never
// ships a byte for them), and the CPU arm additionally takes the leading
// live morsels until it holds frac of the live rows — pruned-heavy ranges
// to the CPU, scan-heavy ranges to the GPU. frac <= 0 sends every morsel
// to the GPU arm (the pure-GPU placement) and frac >= 1 every morsel to
// the CPU arm (the pure-CPU placement).
func SplitHybrid(morsels []ssb.Morsel, pruned []bool, frac float64) Split {
	var sp Split
	if frac <= 0 {
		sp.GPU = make([]int, len(morsels))
		for i := range morsels {
			sp.GPU[i] = i
		}
		return sp
	}
	var liveRows int64
	for i, m := range morsels {
		if !pruned[i] {
			liveRows += int64(m.Rows())
		}
	}
	want := frac * float64(liveRows)
	var cpuRows int64
	for i, m := range morsels {
		if pruned[i] {
			sp.CPU = append(sp.CPU, i)
			continue
		}
		if frac >= 1 || float64(cpuRows) < want {
			sp.CPU = append(sp.CPU, i)
			cpuRows += int64(m.Rows())
			continue
		}
		sp.GPU = append(sp.GPU, i)
	}
	return sp
}
