package queries

import (
	"fmt"
	"math/bits"

	"crystal/internal/device"
	"crystal/internal/gpu"
	"crystal/internal/sched"
)

// Sort-phase compute costs (scalar-equivalent cycles) on the CPU engines:
// one comparator evaluation per row per merge pass, and one heap sift level
// per row for the bounded top-N heap. Exported through the cost helpers
// below so planner.OrderCost prices exactly what the executor runs.
const (
	SortCmpCycles = 8.0
	HeapCycles    = 12.0
)

// sortRowBytes is the byte width of one materialized result row in the sort
// phase: the 8-byte packed group key plus 8 bytes per aggregate.
func sortRowBytes(q *Query) int64 { return int64(8 + 8*len(q.AggList())) }

// SortRowBytes exposes the sort-phase row width to the planner, which
// prices OrderCost with the same width the executor moves.
func (q *Query) SortRowBytes() int64 { return sortRowBytes(q) }

// sortStage is one sequential stage of the ORDER BY phase: the stages of a
// placement sum to the phase's simulated seconds, and the traced path
// renders each as a sort-pass span.
type sortStage struct {
	label string
	sim   float64
	bytes int64
}

// sortOutcome is the priced execution of the ORDER BY phase on one
// placement: the ordered (LIMIT-truncated) rows, the phase's simulated
// seconds, and its sequential stage decomposition.
type sortOutcome struct {
	rows    []Row
	seconds float64
	stages  []sortStage
}

func (o *sortOutcome) add(label string, sim float64, bytes int64) {
	o.seconds += sim
	o.stages = append(o.stages, sortStage{label: label, sim: sim, bytes: bytes})
}

// encodeOrderKey maps an order value to an order-preserving uint64 (two's
// complement flipped to unsigned order; descending keys are bit-inverted so
// ascending radix passes yield descending output).
func encodeOrderKey(v int64, desc bool) uint64 {
	u := uint64(v) ^ (1 << 63)
	if desc {
		u = ^u
	}
	return u
}

// orderKeyWidth is the bit width a radix sort of rows by k runs over: one
// min/max scan of the encoded keys, rebased to key - min, so the sort runs
// only the passes the surviving bits need — the bits-moved win of sort keys
// with small ranges (Section 5.5 logic applied to the sort pipeline). Rows
// that all tie on the key, or number fewer than two, need no passes.
func orderKeyWidth(q *Query, k OrderKey, rows []Row) int {
	if len(rows) <= 1 {
		return 0
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, r := range rows {
		u := encodeOrderKey(orderVal(q, k, r), k.Desc)
		lo, hi = min(lo, u), max(hi, u)
	}
	return bits.Len64(hi - lo)
}

// cpuSortPass and heapPass are the priced passes of the CPU sort paths;
// shared with the exported cost helpers so the planner model and the
// executor can never drift.
func cpuSortPass(n, rowBytes int64) *device.Pass {
	return &device.Pass{
		Label:         "sort merge pass",
		BytesRead:     n * rowBytes,
		BytesWritten:  n * rowBytes,
		ComputeCycles: SortCmpCycles * float64(n),
	}
}

func heapPass(n, rowBytes int64, k int) *device.Pass {
	levels := float64(bits.Len64(uint64(k)))
	return &device.Pass{
		Label:         "sort heap top-n",
		BytesRead:     n * rowBytes,
		BytesWritten:  int64(k) * rowBytes,
		ComputeCycles: HeapCycles * float64(n) * levels,
	}
}

// MergeSortCost prices a full merge sort of n rows of rowBytes each on dev:
// ceil(log2 n) passes, each streaming the rows in and out once.
func MergeSortCost(dev *device.Spec, n, rowBytes int64) float64 {
	if n <= 1 {
		return 0
	}
	passes := bits.Len64(uint64(n - 1)) // ceil(log2 n)
	return float64(passes) * dev.PassTime(cpuSortPass(n, rowBytes))
}

// TopNHeapCost prices the bounded-heap top-k over n rows of rowBytes each
// on dev: one streaming pass with log2(k)-deep sifts, writing k rows.
func TopNHeapCost(dev *device.Spec, n, rowBytes int64, k int) float64 {
	if n <= 1 {
		return 0
	}
	if k <= 0 || int64(k) >= n {
		return MergeSortCost(dev, n, rowBytes)
	}
	return dev.PassTime(heapPass(n, rowBytes, k))
}

// radixKeySeconds adds to secs, pass by pass, the LSD radix sort of n rows
// by one rebased key of keyBits bits: per stable pass of
// gpu.RadixPassWidths, the histogram, prefix and shuffle passes
// gpu.RadixPartition charges for 64-bit keys with a row-index payload, in
// the order it charges them onto its clock.
func radixKeySeconds(dev *device.Spec, n int64, keyBits int, secs float64) float64 {
	numBlocks := int64(gpuConfig(int(n)).NumBlocks())
	for _, r := range gpu.RadixPassWidths(keyBits) {
		histBytes := numBlocks * (int64(1) << r) * 4
		secs += dev.PassTime(&device.Pass{BytesRead: n * 8, BytesWritten: histBytes, Kernels: 1})
		secs += dev.PassTime(&device.Pass{BytesRead: histBytes, BytesWritten: histBytes, Kernels: 1})
		secs += dev.PassTime(&device.Pass{BytesRead: n * 12, BytesWritten: n * 12, Kernels: 1})
	}
	return secs
}

// RadixSortCost prices the GPU LSD radix sort of n rows with `keys` ORDER BY
// keys, each estimated at keyBits significant bits after rebasing — the
// passes deviceSort charges, so the planner's GPU sort estimate and the
// priced sort share one model (TestRadixSortCostIsTheExecutedSort pins it
// bit for bit to gpu.LSBRadixSort64's clock).
func RadixSortCost(dev *device.Spec, n int64, keys, keyBits int) float64 {
	if n <= 1 || keys <= 0 {
		return 0
	}
	return radixKeySeconds(dev, n, keyBits, 0) * float64(keys)
}

// hostSort prices the CPU ORDER BY path over n rows: the bounded heap when
// the query has a LIMIT and the heap prices cheaper, otherwise the
// ceil(log2 n) passes of a bottom-up merge sort — the heap-vs-sort decision
// the planner's OrderCost mirrors.
func hostSort(q *Query, n int64, o *sortOutcome) {
	host := device.I76900()
	rowBytes := sortRowBytes(q)
	if q.Limit > 0 && int64(q.Limit) < n &&
		TopNHeapCost(host, n, rowBytes, q.Limit) < MergeSortCost(host, n, rowBytes) {
		o.add("heap top-"+fmt.Sprint(q.Limit), host.PassTime(heapPass(n, rowBytes, q.Limit)), 0)
		return
	}
	t := host.PassTime(cpuSortPass(n, rowBytes))
	for p := range bits.Len64(uint64(n - 1)) {
		o.add(fmt.Sprintf("merge pass %d", p), t, 0)
	}
}

// deviceSort prices the GPU radix path over rows on one device: one stable
// LSD sort per ORDER BY key, from least to most significant, on one running
// clock; each key is one stage.
func deviceSort(q *Query, dev *device.Spec, rows []Row, o *sortOutcome) {
	var now, last float64
	for ki := len(q.OrderBy) - 1; ki >= 0; ki-- {
		now = radixKeySeconds(dev, int64(len(rows)), orderKeyWidth(q, q.OrderBy[ki], rows), now)
		o.add(fmt.Sprintf("radix key %d", ki), now-last, 0)
		last = now
	}
}

// sortDevice resolves the device spec a GPU-side sort runs on.
func sortDevice(x sched.Executor) *device.Spec {
	if g, ok := x.(*gpuDeviceExecutor); ok {
		return g.dev
	}
	return device.V100()
}

// executeSort runs the ORDER BY phase for a scheduled run. The rows are
// ordered once, on the host, with the comparator that defines the order
// (orderRows); every placement returns those rows, because ORDER BY is a
// total order. The phase is priced on the placement the schedule implies —
// the same hardware that ran the scan — from counts alone:
//
//   - CPU-only schedules sort on the host (bounded heap for top-N when it
//     prices cheaper, merge sort otherwise).
//   - A single GPU executor radix-sorts on its device; the coprocessor
//     additionally ships the output rows back over PCIe.
//   - A multi-device fleet sorts each device's contiguous shard of the base
//     order independently (makespan), ships each device's leading run
//     across the link, and k-way-merges the sorted runs on the host.
//   - Hybrid (mixed-kind) schedules sort on the host, which already holds
//     the merged groups.
//
// rows arrive in the base packed-key order (resultRows). Every stage is
// priced in bytes moved like the scan kernels, and the stages sum exactly
// to the phase's simulated seconds.
func (p *Plan) executeSort(s sched.Schedule, rows []Row) *sortOutcome {
	q := &p.Query
	o := &sortOutcome{rows: truncateRows(q, orderRows(q, rows))}
	if len(rows) <= 1 {
		return o
	}
	var gpus []sched.Executor
	cpuish, coproc := false, false
	for i := range s.Assignments {
		a := &s.Assignments[i]
		if len(a.Morsels) == 0 {
			continue
		}
		switch a.Executor.Kind() {
		case sched.KindGPU:
			gpus = append(gpus, a.Executor)
		case sched.KindCoproc:
			cpuish, coproc = true, true
		default:
			cpuish = true
		}
	}
	rowBytes := sortRowBytes(q)
	switch {
	case coproc && len(gpus) == 0:
		// The coprocessor's groups live on the device: radix-sort there,
		// then ship the (truncated) output rows back over PCIe.
		deviceSort(q, device.V100(), rows, o)
		outBytes := int64(len(o.rows)) * rowBytes
		o.add("ship rows", device.TransferTime(outBytes), outBytes)
	case len(gpus) == 1 && !cpuish:
		deviceSort(q, sortDevice(gpus[0]), rows, o)
	case len(gpus) > 1 && !cpuish:
		// Fleet: one radix sort per shard (concurrent — the stage is the
		// slowest device), each shard's leading min(LIMIT, shard) rows across
		// the link (the global top-k is within every shard's top-k), and a
		// k-way merge of the runs on the host.
		n := len(rows)
		var makespan float64
		var shipped int64
		for d := range gpus {
			shard := rows[d*n/len(gpus) : (d+1)*n/len(gpus)]
			sub := &sortOutcome{}
			deviceSort(q, sortDevice(gpus[d]), shard, sub)
			makespan = max(makespan, sub.seconds)
			run := len(shard)
			if q.Limit > 0 {
				run = min(run, q.Limit)
			}
			shipped += int64(run)
		}
		shipBytes := shipped * rowBytes
		o.add(fmt.Sprintf("device sort x%d", len(gpus)), makespan, 0)
		o.add("ship runs", s.Link.TransferTime(shipBytes), shipBytes)
		mergePass := &device.Pass{
			Label:         "merge sorted runs",
			BytesRead:     shipBytes,
			BytesWritten:  int64(len(o.rows)) * rowBytes,
			ComputeCycles: SortCmpCycles * float64(shipped) * float64(bits.Len(uint(len(gpus)))),
		}
		o.add("merge runs", device.I76900().PassTime(mergePass), 0)
	default:
		// CPU-only and hybrid schedules (or an all-idle one): the merged
		// groups are host-side.
		hostSort(q, int64(len(rows)), o)
	}
	return o
}
