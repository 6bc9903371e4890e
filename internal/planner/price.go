package planner

import (
	"slices"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/queries"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// members is the batch one estimate prices: each query with its join
// statistics and zone-map verdicts, and what a shared scan over all of them
// reads. A single-query estimate is a batch of one. Every exported entry
// point builds it once and prices each placement from it with price.
type members struct {
	fl      fleet.Spec
	morsels []ssb.Morsel
	packed  *ssb.PackedFact
	qs      []queries.Query
	stats   [][]JoinStats
	// pruned[i] is member i's queries.PruneMorsels verdict and prunedAll
	// the batch's: a morsel prunes only when every member prunes it, the
	// liveness queries.RunBatchScheduled's shared scan executes.
	pruned    [][]bool
	prunedAll []bool
	// filterCols are the distinct fact filter columns (what the scan
	// streams) and refCols the distinct referenced fact columns (what a GPU
	// arm ships, once for the whole batch).
	filterCols, refCols []string
	// all lists every morsel index: the undivided arm of a pure placement.
	all []int
}

// newMembers prepares qs over morsels for pricing on the normalized fleet fl.
func newMembers(fl fleet.Spec, ds *ssb.Dataset, qs []queries.Query, morsels []ssb.Morsel, packed *ssb.PackedFact) *members {
	m := &members{fl: fl, morsels: morsels, packed: packed, qs: qs,
		stats: make([][]JoinStats, len(qs)), pruned: make([][]bool, len(qs)), all: make([]int, len(morsels))}
	for i := range qs {
		m.stats[i] = Stats(ds, qs[i])
		m.pruned[i] = queries.PruneMorsels(morsels, qs[i].FactFilters)
		for _, f := range qs[i].FactFilters {
			if !slices.Contains(m.filterCols, f.Col) {
				m.filterCols = append(m.filterCols, f.Col)
			}
		}
		for _, c := range qs[i].ReferencedFactColumns() {
			if !slices.Contains(m.refCols, c) {
				m.refCols = append(m.refCols, c)
			}
		}
	}
	m.prunedAll = m.pruned[0]
	if len(qs) > 1 {
		m.prunedAll = make([]bool, len(morsels))
		for mi := range morsels {
			m.prunedAll[mi] = !slices.ContainsFunc(m.pruned, func(p []bool) bool { return !p[mi] })
		}
	}
	for mi := range m.all {
		m.all[mi] = mi
	}
	return m
}

// price prices the batch on one placement, in HybridEstimate's shape with
// the pure-placement fields left zero. frac is the live-row share
// sched.SplitHybrid routes to the host CPU engine, so one call prices any
// host-resident placement:
//
//   - frac 1: pure CPU, the host engine scans everything;
//   - frac 0: pure GPU, every live morsel ships per query;
//   - 0 < frac < 1: the hybrid schedule.
//
// These are the shapes queries.Plan.ScheduleHybrid builds from the same
// primitives, so the model never prices a placement the executor would not
// produce. Each GPU overlaps its shipment with execution, every active GPU
// adds its partial aggregates to the merge, and each member's ORDER BY runs
// host-side when there is a CPU arm, on the devices otherwise.
func (m *members) price(frac float64) HybridEstimate {
	est := HybridEstimate{GPUs: m.fl.GPUs, CPUFrac: frac}
	cpuIdx, gpuIdx, gpuMorsels := m.all, m.all, m.morsels
	switch {
	case frac >= 1:
		gpuIdx, gpuMorsels = nil, nil
	case frac <= 0:
		cpuIdx = nil
	default:
		split := sched.SplitHybrid(m.morsels, m.prunedAll, frac)
		cpuIdx, gpuIdx = split.CPU, split.GPU
		gpuMorsels = make([]ssb.Morsel, len(gpuIdx))
		for i, mi := range gpuIdx {
			gpuMorsels[i] = m.morsels[mi]
		}
	}

	var makespan float64
	sortDev := m.fl.Device // host-side once there is a CPU arm
	if frac > 0 {
		sortDev = device.I76900()
		est.CPUSeconds = m.run(sortDev, cpuIdx)
		makespan = est.CPUSeconds
	}
	if frac < 1 {
		est.DeviceSeconds = make([]float64, 0, m.fl.GPUs)
		for _, sh := range fleet.Split(gpuMorsels, m.fl.GPUs) {
			if len(sh.Morsels) == 0 {
				est.DeviceSeconds = append(est.DeviceSeconds, 0)
				continue
			}
			var ship int64
			for k, li := range sh.Morsels {
				mi := gpuIdx[li]
				sh.Morsels[k] = mi
				if m.prunedAll[mi] {
					continue // neither scanned nor shipped
				}
				for _, c := range m.refCols {
					ship += ssb.MorselColumnBytes(m.packed, m.morsels[mi], c)
				}
			}
			sec := m.run(m.fl.Device, sh.Morsels)
			est.ShipBytes += ship
			if t := m.fl.Link.TransferTime(ship); t > sec {
				sec = t // shipment overlaps execution, coprocessor style
			}
			est.DeviceSeconds = append(est.DeviceSeconds, sec)
			makespan = max(makespan, sec)
			for i := range m.qs {
				est.MergeBytes += int64(m.qs[i].GroupEstimate()) * m.qs[i].AggRowBytes()
			}
		}
	}
	est.MergeSeconds = m.fl.Link.TransferTime(est.MergeBytes)
	est.Seconds = makespan + est.MergeSeconds
	for i := range m.qs {
		est.Seconds += OrderCost(sortDev, m.qs[i])
	}
	return est
}

// run prices one arm's morsels idx on dev: the fact-filter scan over the
// morsels any member keeps, charged once in the run's encoding, plus each
// member's probe pipeline over the morsels it keeps.
func (m *members) run(dev *device.Spec, idx []int) float64 {
	var sec float64
	if rows := m.rows(idx, m.prunedAll); m.packed != nil {
		sec = ScanCostPacked(dev, m.packed, rows, m.filterCols)
	} else {
		sec = ScanCost(dev, rows, len(m.filterCols))
	}
	for i := range m.qs {
		sec += Cost(dev, m.rows(idx, m.pruned[i]), m.stats[i])
	}
	return sec
}

// rows counts the fact rows of the morsels idx that pruned keeps.
func (m *members) rows(idx []int, pruned []bool) int64 {
	var n int64
	for _, mi := range idx {
		if !pruned[mi] {
			n += int64(m.morsels[mi].Rows())
		}
	}
	return n
}
