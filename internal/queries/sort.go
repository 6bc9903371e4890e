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

// mergeSortRows stable-sorts rows with a bottom-up merge sort — the CPU
// engines' full ORDER BY algorithm. Returns the sorted rows and the number
// of merge passes (what the pass-priced model charges).
func mergeSortRows(q *Query, rows []Row) ([]Row, int) {
	n := len(rows)
	src := append([]Row(nil), rows...)
	if n <= 1 {
		return src, 0
	}
	dst := make([]Row, n)
	passes := 0
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j := lo, mid
			for o := lo; o < hi; o++ {
				if i < mid && (j >= hi || !q.rowLess(src[j], src[i])) {
					dst[o] = src[i]
					i++
				} else {
					dst[o] = src[j]
					j++
				}
			}
		}
		src, dst = dst, src
		passes++
	}
	return src, passes
}

// heapTopN keeps the first k rows of the total order with a bounded binary
// heap whose root is the worst kept row — the CPU top-N algorithm. The
// final pop-off emits the k rows in order.
func heapTopN(q *Query, rows []Row, k int) []Row {
	if k <= 0 || k >= len(rows) {
		out, _ := mergeSortRows(q, rows)
		return out
	}
	h := make([]Row, 0, k)
	// after reports whether a sorts after b (the heap keeps its worst row,
	// under the total order, at the root).
	after := func(a, b Row) bool { return q.rowLess(b, a) }
	down := func(i int) {
		for {
			l, r, top := 2*i+1, 2*i+2, i
			if l < len(h) && after(h[l], h[top]) {
				top = l
			}
			if r < len(h) && after(h[r], h[top]) {
				top = r
			}
			if top == i {
				return
			}
			h[i], h[top] = h[top], h[i]
			i = top
		}
	}
	for _, r := range rows {
		if len(h) < k {
			h = append(h, r)
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !after(h[i], h[parent]) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
			continue
		}
		if q.rowLess(r, h[0]) {
			h[0] = r
			down(0)
		}
	}
	out := make([]Row, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		down(0)
	}
	return out
}

// mergeRuns k-way-merges sorted runs under the total order, stopping after
// limit rows (0 = merge everything) — the host side of the fleet's
// sorted-run merge.
func mergeRuns(q *Query, runs [][]Row, limit int) []Row {
	idx := make([]int, len(runs))
	var out []Row
	for {
		best := -1
		for r := range runs {
			if idx[r] >= len(runs[r]) {
				continue
			}
			if best < 0 || q.rowLess(runs[r][idx[r]], runs[best][idx[best]]) {
				best = r
			}
		}
		if best < 0 {
			break
		}
		out = append(out, runs[best][idx[best]])
		idx[best]++
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
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

// radixSortRows stable-sorts rows by one ORDER BY key with an LSD radix
// sort on the GPU clock. The key is rebased to (key - min), so the sort
// runs only the passes the surviving bit width needs — the bits-moved win
// of sort keys with small ranges (Section 5.5 logic applied to the sort
// pipeline). Rows that all tie on the key come back as they are, with no
// passes and no traffic.
func radixSortRows(q *Query, k OrderKey, clk *device.Clock, rows []Row) []Row {
	n := len(rows)
	if n <= 1 {
		return rows
	}
	keys := make([]uint64, n)
	idx := make([]int32, n)
	min := ^uint64(0)
	var max uint64
	for i, r := range rows {
		u := encodeOrderKey(orderVal(q, k, r), k.Desc)
		keys[i] = u
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
		idx[i] = int32(i)
	}
	width := bits.Len64(max - min)
	if width == 0 {
		return rows
	}
	for i := range keys {
		keys[i] -= min
	}
	_, perm := gpu.LSBRadixSort64(clk, gpuConfig(n), keys, idx, width)
	sorted := make([]Row, n)
	for i, p := range perm {
		sorted[i] = rows[p]
	}
	return sorted
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

// RadixSortCost prices the GPU LSD radix sort of n rows with `keys` ORDER BY
// keys, each estimated at keyBits significant bits after rebasing. It
// constructs the same histogram/prefix/shuffle passes gpu.RadixPartition
// charges for 64-bit keys with a row-index payload, so the planner's GPU
// sort estimate and the executed kernel share one pricing model
// (TestRadixSortCostIsTheExecutedSort pins the two bit for bit).
func RadixSortCost(dev *device.Spec, n int64, keys, keyBits int) float64 {
	if n <= 1 || keys <= 0 {
		return 0
	}
	cfg := gpuConfig(int(n))
	numBlocks := int64(cfg.NumBlocks())
	var secs float64
	for _, r := range gpu.RadixPassWidths(keyBits) {
		numPart := int64(1) << r
		histBytes := numBlocks * numPart * 4
		secs += dev.PassTime(&device.Pass{BytesRead: n * 8, BytesWritten: histBytes, Kernels: 1})
		secs += dev.PassTime(&device.Pass{BytesRead: histBytes, BytesWritten: histBytes, Kernels: 1})
		secs += dev.PassTime(&device.Pass{BytesRead: n * 12, BytesWritten: n * 12, Kernels: 1})
	}
	return secs * float64(keys)
}

// hostSort runs the CPU ORDER BY path on rows: the bounded heap when the
// query has a LIMIT and the heap prices cheaper, the full merge sort
// otherwise — the heap-vs-sort decision the planner's OrderCost mirrors.
func hostSort(q *Query, rows []Row, o *sortOutcome) {
	host := device.I76900()
	n, rowBytes := int64(len(rows)), sortRowBytes(q)
	if q.Limit > 0 && int64(q.Limit) < n &&
		TopNHeapCost(host, n, rowBytes, q.Limit) < MergeSortCost(host, n, rowBytes) {
		o.rows = heapTopN(q, rows, q.Limit)
		o.add("heap top-"+fmt.Sprint(q.Limit), host.PassTime(heapPass(n, rowBytes, q.Limit)), 0)
		return
	}
	sorted, passes := mergeSortRows(q, rows)
	o.rows = truncateRows(q, sorted)
	t := host.PassTime(cpuSortPass(n, rowBytes))
	for p := 0; p < passes; p++ {
		o.add(fmt.Sprintf("merge pass %d", p), t, 0)
	}
}

// deviceSort runs the GPU radix path on one device clock, starting from
// the base packed-key order: one stable LSD sort per ORDER BY key from least
// to most significant, each recorded as one stage.
func deviceSort(q *Query, dev *device.Spec, rows []Row, o *sortOutcome) []Row {
	clk := device.NewClock(dev)
	var last float64
	for ki := len(q.OrderBy) - 1; ki >= 0; ki-- {
		rows = radixSortRows(q, q.OrderBy[ki], clk, rows)
		now := clk.Seconds()
		o.add(fmt.Sprintf("radix key %d", ki), now-last, 0)
		last = now
	}
	return rows
}

// sortDevice resolves the device spec a GPU-side sort runs on.
func sortDevice(x sched.Executor) *device.Spec {
	if g, ok := x.(*gpuDeviceExecutor); ok {
		return g.dev
	}
	return device.V100()
}

// executeSort runs the ORDER BY phase for a scheduled run on the placement
// the schedule implies — the same hardware that ran the scan:
//
//   - CPU-only schedules sort on the host (bounded heap for top-N when it
//     prices cheaper, merge sort otherwise).
//   - A single GPU executor radix-sorts on its device; the coprocessor
//     additionally ships the output rows back over PCIe.
//   - A multi-device fleet sorts each device's shard of the groups
//     independently (makespan), ships each device's leading run across the
//     link, and k-way-merges the sorted runs on the host — row- and
//     order-identical to a single-device sort because ORDER BY is a total
//     order.
//   - Hybrid (mixed-kind) schedules sort on the host, which already holds
//     the merged groups.
//
// Every stage is priced in bytes moved like the scan kernels, and the
// stages sum exactly to the phase's simulated seconds.
func (p *Plan) executeSort(s sched.Schedule, rows []Row) *sortOutcome {
	q := &p.Query
	o := &sortOutcome{}
	if len(rows) <= 1 {
		o.rows = truncateRows(q, rows)
		return o
	}
	var gpuEx []sched.Executor
	cpuish := false
	for i := range s.Assignments {
		a := &s.Assignments[i]
		if len(a.Morsels) == 0 {
			continue
		}
		switch a.Executor.Kind() {
		case sched.KindGPU:
			gpuEx = append(gpuEx, a.Executor)
		default:
			cpuish = true
		}
	}
	rowBytes := sortRowBytes(q)
	switch {
	case cpuish && len(gpuEx) == 0:
		coproc := false
		for i := range s.Assignments {
			if len(s.Assignments[i].Morsels) > 0 && s.Assignments[i].Executor.Kind() == sched.KindCoproc {
				coproc = true
			}
		}
		if coproc {
			// The coprocessor's groups live on the device: radix-sort there,
			// then ship the (truncated) output rows back over PCIe.
			dev := device.V100()
			o.rows = truncateRows(q, deviceSort(q, dev, rows, o))
			outBytes := int64(len(o.rows)) * rowBytes
			o.add("ship rows", device.TransferTime(outBytes), outBytes)
			return o
		}
		hostSort(q, rows, o)
	case len(gpuEx) == 1 && !cpuish:
		o.rows = truncateRows(q, deviceSort(q, sortDevice(gpuEx[0]), rows, o))
	case len(gpuEx) > 1 && !cpuish:
		// Fleet: contiguous shards of the base order, one radix sort per
		// device (concurrent — the stage is the slowest device), sorted runs
		// across the link, k-way merge on the host.
		n := len(rows)
		runs := make([][]Row, len(gpuEx))
		var makespan float64
		var shipBytes int64
		var shipped int64
		for d := range gpuEx {
			lo, hi := d*n/len(gpuEx), (d+1)*n/len(gpuEx)
			shard := rows[lo:hi]
			sub := &sortOutcome{}
			run := deviceSort(q, sortDevice(gpuEx[d]), shard, sub)
			if sub.seconds > makespan {
				makespan = sub.seconds
			}
			if q.Limit > 0 && q.Limit < len(run) {
				run = run[:q.Limit] // the global top-k is within every shard's top-k
			}
			runs[d] = run
			shipped += int64(len(run))
			shipBytes += int64(len(run)) * rowBytes
		}
		o.add(fmt.Sprintf("device sort x%d", len(gpuEx)), makespan, 0)
		o.add("ship runs", s.Link.TransferTime(shipBytes), shipBytes)
		merged := mergeRuns(q, runs, q.Limit)
		host := device.I76900()
		mergePass := &device.Pass{
			Label:         "merge sorted runs",
			BytesRead:     shipBytes,
			BytesWritten:  int64(len(merged)) * rowBytes,
			ComputeCycles: SortCmpCycles * float64(shipped) * float64(bits.Len(uint(len(gpuEx)))),
		}
		o.add("merge runs", host.PassTime(mergePass), 0)
		o.rows = merged
	default:
		// Hybrid (or an all-idle schedule): the merged groups are host-side.
		hostSort(q, rows, o)
	}
	return o
}
