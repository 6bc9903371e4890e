// Package planner implements the join-order selection the paper applies by
// hand in Section 5.3 ("We choose a query plan where lineorder first joins
// supplier, then part, and finally date; this plan delivers the highest
// performance among the several promising plans that we have evaluated").
//
// The planner enumerates the permutations of a query's join pipeline,
// prices each with the same device model the engines use — streaming column
// reads with line skipping, per-join probe traffic against each hash
// table's cache residency, survivor cardinalities from the dimension
// selectivities — and returns the cheapest. Because both sides share the
// model, the planner's choice is exactly the order that minimizes the
// engine's simulated runtime.
package planner

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"crystal/internal/device"
	"crystal/internal/pack"
	"crystal/internal/queries"
	"crystal/internal/ssb"
)

// JoinStats summarizes one join for costing: the dimension cardinality, the
// hash-table footprint and the selectivity its filters impose on fact rows.
type JoinStats struct {
	Spec        queries.JoinSpec
	DimRows     int64
	HTBytes     int64
	Selectivity float64
}

// Stats computes per-join statistics from the dataset: an exact count of
// each dimension's rows passing the join's filters (queries.DimFilter, the
// pass Compile's join bitmaps come from; it allocates nothing when only
// counting). Each exported entry point computes them once and hands them to
// every arm it prices.
func Stats(ds *ssb.Dataset, q queries.Query) []JoinStats {
	out := make([]JoinStats, len(q.Joins))
	for i, j := range q.Joins {
		d := queries.DimTable(ds, j.Dim)
		n := d.Rows()
		sel := 1.0
		if n > 0 {
			sel = float64(queries.DimFilter(d, j.Filters, nil)) / float64(n)
		}
		// Hash tables are sized to the full dimension (Section 5.3 "perfect
		// hashing" footprint), payload or not, by the executor's own rule.
		out[i] = JoinStats{Spec: j, DimRows: int64(n), HTBytes: queries.JoinTableBytes(d, j), Selectivity: sel}
	}
	return out
}

// Cost prices one join order on the device: per join, the (line-skipped)
// read of the foreign-key column for the surviving rows plus the probe
// traffic against the table's cache residency; selectivities compound down
// the pipeline.
func Cost(dev *device.Spec, factRows int64, order []JoinStats) float64 {
	pass := &device.Pass{Label: "plan cost"}
	if factRows == 0 {
		return dev.PassTime(pass) // nothing to read or probe: the launch alone
	}
	alive := float64(factRows)
	lineElems := float64(dev.LineSize / 4)
	colLines := float64(factRows) / lineElems
	dependent := len(order) >= 2
	for _, js := range order {
		// FK column lines touched: every line if survivors are dense,
		// otherwise one line per survivor.
		lines := colLines * (1 - math.Pow(1-alive/float64(factRows), lineElems))
		if alive < lines {
			lines = alive
		}
		pass.BytesRead += int64(lines) * dev.LineSize
		pass.AddProbes(device.ProbeSet{
			Count:       int64(alive),
			StructBytes: js.HTBytes,
			Dependent:   dependent,
		})
		alive *= js.Selectivity
	}
	return dev.PassTime(pass)
}

// ScanCost prices the fact-filter scan of a plan: each filter column is
// streamed once over the scanned rows. The term is identical for every
// join order (fact filters run before the probe pipeline), so it never
// changes a plan ranking — but it is where zone-map pruning shows up:
// pruned morsels shrink factRows, and with them the absolute cost a
// scheduler compares against the monolithic plan.
func ScanCost(dev *device.Spec, factRows int64, filterCols int) float64 {
	if filterCols == 0 || factRows == 0 {
		return 0
	}
	pass := &device.Pass{Label: "fact scan", BytesRead: factRows * 4 * int64(filterCols)}
	return dev.PassTime(pass)
}

// ScanCostPacked prices the same fact-filter scan over the bit-packed
// encoding: each column streams its packed bytes (scaled to the scanned
// fraction of the table) and, on CPU devices, pays the per-element unpack
// arithmetic the paper's Section 5.5 warns can tip the scan compute bound.
// GPUs absorb the unpacking in their compute headroom, so for them packed
// is always at most the plain ScanCost — a scheduler compares the two
// numbers to decide whether packed execution wins on a given device.
func ScanCostPacked(dev *device.Spec, pf *ssb.PackedFact, factRows int64, filterCols []string) float64 {
	if len(filterCols) == 0 || factRows == 0 {
		return 0
	}
	frac := float64(factRows) / float64(pf.Rows())
	pass := &device.Pass{Label: "fact scan (packed)"}
	for _, c := range filterCols {
		pass.BytesRead += int64(float64(pf.Col(c).Bytes()) * frac)
	}
	if !dev.IsGPU() {
		pass.ComputeCycles = pack.UnpackCyclesPerElem * float64(factRows) * float64(len(filterCols))
	}
	return dev.PassTime(pass)
}

// Plan is one costed join order.
type Plan struct {
	Order   []queries.JoinSpec
	Seconds float64
}

// Describe renders the order as a pipeline.
func (p *Plan) Describe() string {
	s := "lineorder"
	for _, j := range p.Order {
		s += " ⋈ " + j.Dim
	}
	return fmt.Sprintf("%s (%.3f ms)", s, p.Seconds*1e3)
}

// Pruning summarizes zone-map pruning of a morsel set under a query's fact
// filters: how many morsels the partitioned scan would skip and how many
// fact rows actually reach the pipeline. It is exact, not an estimate —
// zone maps are metadata, so the planner can afford to evaluate them.
type Pruning struct {
	Morsels int
	Pruned  int
	// ScannedRows is the fact cardinality surviving zone-map pruning; it is
	// the row count partitioned plans are priced against.
	ScannedRows int64
}

// PruneEstimate evaluates the query's fact filters against each morsel's
// zone map (the same conservative check the engines use at run time).
func PruneEstimate(morsels []ssb.Morsel, q queries.Query) Pruning {
	pr := Pruning{Morsels: len(morsels)}
	for i, skip := range queries.PruneMorsels(morsels, q.FactFilters) {
		if skip {
			pr.Pruned++
		} else {
			pr.ScannedRows += int64(morsels[i].Rows())
		}
	}
	return pr
}

// Choose enumerates every permutation of the query's joins, prices them on
// dev and returns them sorted cheapest first. SSB queries join at most four
// dimensions, so exhaustive enumeration (<= 24 plans) is exact.
func Choose(dev *device.Spec, ds *ssb.Dataset, q queries.Query) []Plan {
	return choose(dev, int64(ds.Lineorder.Rows()), ds, q)
}

// ChoosePartitioned prices the query's join orders for a partitioned
// execution over the given morsels: zone-pruned morsels charge nothing, so
// every plan's scan term shrinks to the surviving fact rows. Pruning is
// join-order independent (it only reads fact filters), so the ranking
// matches Choose's — what changes is the absolute cost, which a scheduler
// comparing partitioned against monolithic execution (or sizing a morsel
// fan-out) needs to get right.
func ChoosePartitioned(dev *device.Spec, ds *ssb.Dataset, q queries.Query, morsels []ssb.Morsel) []Plan {
	return choose(dev, PruneEstimate(morsels, q).ScannedRows, ds, q)
}

func choose(dev *device.Spec, factRows int64, ds *ssb.Dataset, q queries.Query) []Plan {
	scan := ScanCost(dev, factRows, len(q.FactFilters))
	stats := Stats(ds, q)
	n := len(stats)
	if n == 0 {
		return []Plan{{Seconds: scan + Cost(dev, factRows, nil)}}
	}
	var plans []Plan
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			order := make([]JoinStats, n)
			specs := make([]queries.JoinSpec, n)
			for i, pi := range perm {
				order[i] = stats[pi]
				specs[i] = stats[pi].Spec
			}
			plans = append(plans, Plan{
				Order:   specs,
				Seconds: scan + Cost(dev, factRows, order),
			})
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	sort.Slice(plans, func(i, j int) bool { return plans[i].Seconds < plans[j].Seconds })
	return plans
}

// OptimizeGrouped returns a copy of the query with its joins reordered to
// the cheapest plan that keeps the payload-carrying joins in their original
// relative order. Packed group keys follow join order, so the result rows —
// keys included — are identical to the input query's; this is the variant
// the SQL frontend uses, where the GROUP BY clause has already fixed the
// payload order. The identity order always qualifies, so
// a plan is always found.
func OptimizeGrouped(dev *device.Spec, ds *ssb.Dataset, q queries.Query) queries.Query {
	want := payloadDims(q.Joins)
	for _, p := range Choose(dev, ds, q) {
		if len(p.Order) == 0 {
			return q
		}
		if slices.Equal(payloadDims(p.Order), want) {
			out := q
			out.Joins = p.Order
			return out
		}
	}
	return q
}

// payloadDims lists the dimensions of payload-carrying joins in join order.
func payloadDims(joins []queries.JoinSpec) []string {
	var out []string
	for _, j := range joins {
		if j.Payload != "" {
			out = append(out, j.Dim)
		}
	}
	return out
}
