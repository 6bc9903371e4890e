package planner

import (
	"errors"

	"crystal/internal/device"
	"crystal/internal/fleet"
	"crystal/internal/queries"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// BatchEstimate is the cost model's price of one shared-scan batch on each
// host-resident placement: one scan of the union footprint over the union
// of the members' live morsels, charged once, plus each member's own
// probe/aggregate/sort delta. It is the batch-shaped sibling of
// HybridEstimate — both derive splits and shard maps from the same
// scheduler primitives the executor uses, so the model can never price a
// shape queries.RunBatchScheduled would not produce.
type BatchEstimate struct {
	// Members is the batch size and GPUs the fleet size of the GPU arms.
	Members int
	GPUs    int
	// CPUSeconds, GPUSeconds and HybridSeconds price the batch on the
	// pure-CPU, pure-GPU and throughput-balanced hybrid placements.
	CPUSeconds    float64
	GPUSeconds    float64
	HybridSeconds float64
	// CPUFrac is the hybrid split's live-row CPU fraction.
	CPUFrac float64
}

// unionFilterCols returns the distinct fact filter columns across the batch
// (what the shared scan streams for filtering) and unionRefCols the distinct
// referenced fact columns (what a GPU arm ships once for the whole batch).
func unionCols(qs []queries.Query) (filterCols, refCols []string) {
	seenF, seenR := map[string]bool{}, map[string]bool{}
	for i := range qs {
		for _, f := range qs[i].FactFilters {
			if !seenF[f.Col] {
				seenF[f.Col] = true
				filterCols = append(filterCols, f.Col)
			}
		}
		for _, c := range qs[i].ReferencedFactColumns() {
			if !seenR[c] {
				seenR[c] = true
				refCols = append(refCols, c)
			}
		}
	}
	return filterCols, refCols
}

// batchArms prices the batch on one hybrid split (frac 1 = pure CPU,
// 0 = pure GPU): per arm, the union scan is charged once and every member
// adds its probe/aggregate cost over the arm's rows it is live on. The
// union liveness (a morsel prunes only when every member's zone maps prune
// it) matches the shared scan queries.RunBatchScheduled executes. stats[i]
// are member i's join statistics, computed once by the caller for every arm.
func batchArms(fl fleet.Spec, qs []queries.Query, stats [][]JoinStats, morsels []ssb.Morsel, packed *ssb.PackedFact, frac float64) float64 {
	filterCols, refCols := unionCols(qs)
	cpu := device.I76900()

	prunedPer := make([][]bool, len(qs))
	for i := range qs {
		prunedPer[i] = queries.PruneMorsels(morsels, qs[i].FactFilters)
	}
	prunedAll := make([]bool, len(morsels))
	for mi := range morsels {
		prunedAll[mi] = true
		for i := range qs {
			if !prunedPer[i][mi] {
				prunedAll[mi] = false
				break
			}
		}
	}
	split := sched.SplitHybrid(morsels, prunedAll, frac)

	memberRows := func(idx []int, i int) int64 {
		var rows int64
		for _, mi := range idx {
			if !prunedPer[i][mi] {
				rows += int64(morsels[mi].Rows())
			}
		}
		return rows
	}
	unionRows := func(idx []int) int64 {
		var rows int64
		for _, mi := range idx {
			if !prunedAll[mi] {
				rows += int64(morsels[mi].Rows())
			}
		}
		return rows
	}

	var makespan float64
	if len(split.CPU) > 0 {
		sec := scanCostFor(cpu, packed, unionRows(split.CPU), filterCols)
		for i := range qs {
			sec += Cost(cpu, memberRows(split.CPU, i), stats[i])
		}
		makespan = sec
	}

	shardBytes := func(m ssb.Morsel) int64 { return ssb.MorselStorageBytes(packed, m) }
	spillCost := func(m ssb.Morsel) int64 {
		var b int64
		for _, c := range refCols {
			b += ssb.MorselColumnBytes(packed, m, c)
		}
		return b
	}
	gpuMorsels := make([]ssb.Morsel, len(split.GPU))
	for i, mi := range split.GPU {
		gpuMorsels[i] = morsels[mi]
	}
	shards := fleet.Assign(gpuMorsels, fl.GPUs, 0, shardBytes)
	var mergeBytes int64
	for _, sh := range shards {
		if len(sh.Morsels) == 0 {
			continue
		}
		var ship int64
		owned := make([]int, len(sh.Morsels))
		for li, si := range sh.Morsels {
			mi := split.GPU[si]
			owned[li] = mi
			if !prunedAll[mi] {
				ship += spillCost(morsels[mi]) // union footprint ships once per batch
			}
		}
		sec := scanCostFor(fl.Device, packed, unionRows(owned), filterCols)
		for i := range qs {
			sec += Cost(fl.Device, memberRows(owned, i), stats[i])
			mergeBytes += int64(qs[i].GroupEstimate()) * qs[i].AggRowBytes()
		}
		if t := fl.Link.TransferTime(ship); t > sec {
			sec = t
		}
		if sec > makespan {
			makespan = sec
		}
	}
	sec := makespan + fl.Link.TransferTime(mergeBytes)
	// Each member's ORDER BY phase runs after its own merge; host-side for
	// any placement with a CPU arm, on the devices for pure GPU.
	sortDev := cpu
	if frac == 0 {
		sortDev = fl.Device
	}
	for i := range qs {
		sec += OrderCost(sortDev, qs[i])
	}
	return sec
}

// BatchCost prices one shared-scan batch of compatible queries on the
// host-resident placements: the shared scan (union footprint over the union
// of live morsels) is charged once per arm, and every member adds its own
// probe/aggregate/sort delta — the batch-shaped HybridCost. placement=auto
// batch requests route through ChooseBatchPlacement exactly as singles
// route through ChoosePlacement.
func BatchCost(fl fleet.Spec, ds *ssb.Dataset, qs []queries.Query, morsels []ssb.Morsel, packed *ssb.PackedFact) (BatchEstimate, error) {
	if len(qs) == 0 {
		return BatchEstimate{}, errors.New("planner: empty batch")
	}
	fl, err := fl.Normalized()
	if err != nil {
		return BatchEstimate{}, err
	}
	cpu := device.I76900()
	frac := sched.CPUFraction(cpu, fl.Device, fl.GPUs)
	stats := make([][]JoinStats, len(qs))
	for i := range qs {
		stats[i] = Stats(ds, qs[i])
	}
	est := BatchEstimate{
		Members:       len(qs),
		GPUs:          fl.GPUs,
		CPUFrac:       frac,
		CPUSeconds:    batchArms(fl, qs, stats, morsels, packed, 1),
		GPUSeconds:    batchArms(fl, qs, stats, morsels, packed, 0),
		HybridSeconds: batchArms(fl, qs, stats, morsels, packed, frac),
	}
	return est, nil
}

// ChooseBatchPlacement routes one shared-scan batch among the host-resident
// placements: hybrid only when it strictly beats both pure placements,
// otherwise the cheaper of pure CPU and pure GPU — the batch-shaped
// ChoosePlacement.
func ChooseBatchPlacement(fl fleet.Spec, ds *ssb.Dataset, qs []queries.Query, morsels []ssb.Morsel, packed *ssb.PackedFact) (Placement, BatchEstimate, error) {
	est, err := BatchCost(fl, ds, qs, morsels, packed)
	if err != nil {
		return "", BatchEstimate{}, err
	}
	best, bestSec := PlaceCPU, est.CPUSeconds
	if est.GPUSeconds < bestSec {
		best, bestSec = PlaceGPU, est.GPUSeconds
	}
	if est.HybridSeconds < bestSec {
		best = PlaceHybrid
	}
	return best, est, nil
}
