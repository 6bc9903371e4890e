package planner

import (
	"crystal/internal/device"
	"crystal/internal/queries"
)

// sortKeyBits is the planner's estimate of the significant bit width of one
// rebased ORDER BY key on the GPU radix path: group payloads fit the packed
// key's 20-bit slot, and SSB aggregate magnitudes rebase into a similar
// range, so three stable 7-bit passes per key is the planning assumption.
const sortKeyBits = 20

// OrderCost is the ORDER BY term a placement estimate adds for the query's
// estimated result rows on dev, zero without ORDER BY: the LSD radix sort
// on GPUs (the device sorts fully and truncates to any LIMIT; there is no
// priced GPU heap), the full merge sort on the host — or, under a LIMIT,
// the bounded heap when it prices no higher, the heap-vs-sort decision the
// executor makes. Every term comes from the exported pricing helpers the
// executor's sort phase charges, so the planner and the sort it routes to
// can never drift.
func OrderCost(dev *device.Spec, q queries.Query) float64 {
	if len(q.OrderBy) == 0 {
		return 0
	}
	n := int64(q.GroupEstimate())
	if dev.IsGPU() {
		return queries.RadixSortCost(dev, n, len(q.OrderBy), sortKeyBits)
	}
	full := queries.MergeSortCost(dev, n, q.SortRowBytes())
	if q.Limit > 0 {
		if heap := queries.TopNHeapCost(dev, n, q.SortRowBytes(), q.Limit); heap <= full {
			return heap
		}
	}
	return full
}
