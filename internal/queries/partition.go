package queries

import (
	"fmt"

	"crystal/internal/sim"
	"crystal/internal/ssb"
)

// Limiter bounds intra-query helper parallelism (morsel scans, GPU block
// execution). It is sim.Gate re-exported at the query layer: the serving
// layer shares one Limiter across every in-flight request so a single
// partitioned query can never monopolize the host. A nil Limiter means
// "unbounded up to GOMAXPROCS", which is the standalone (non-served)
// behavior.
type Limiter = sim.Gate

// Residency models a device-memory cache of packed fact columns for the
// coprocessor architecture: keeping hot compressed columns resident on the
// GPU, instead of re-shipping them over PCIe per query, is what makes the
// coprocessor competitive at scale. Acquire looks up the named fact column
// (bytes of packed storage): hit means it is already device-resident and
// the engine skips its PCIe transfer entirely; otherwise admitted reports
// whether the cache accepted the column — if so, the engine ships it whole
// (the transfer is what populates device memory), and if not (the column
// exceeds the cache, or the cache has moved on), the engine falls back to
// the ordinary cold transfer. Implementations must be safe for concurrent
// use; internal/serve provides the capacity-bounded LRU.
type Residency interface {
	Acquire(col string, bytes int64) (hit, admitted bool)
}

// PartitionOptions configures the zone-mapped morsel scan every placement
// runs on. The zero value means default: a monolithic single-scan run of
// the plain columns with unbounded helpers.
type PartitionOptions struct {
	// Partitions is the number of morsels the fact table is split into.
	// Values below 1 run the monolithic single-scan path with no zone maps
	// (byte-for-byte the unpartitioned execution). 1 and above partition
	// through ssb.Dataset.Partition, so even a single morsel carries a zone
	// map and can be pruned outright by an unsatisfiable filter.
	Partitions int
	// Limiter bounds helper parallelism; nil means up to GOMAXPROCS.
	Limiter Limiter
	// Packed scans the bit-packed fact encoding instead of the plain
	// columns. Rows are identical by construction — the engines decode
	// values through the encoding at scan time — while simulated seconds
	// reflect the paper's Section 5.5 asymmetry: smaller streaming reads on
	// every engine, per-element unpack arithmetic on the CPU engines (which
	// can tip a scan compute bound), and compressed PCIe transfers on the
	// coprocessor. The encoding must have been built from this plan's
	// dataset (ssb.Dataset.Pack on the same fact layout).
	Packed *ssb.PackedFact
	// Residency, set together with Packed, lets the coprocessor skip PCIe
	// transfers of device-resident packed columns. Ignored by the on-device
	// engines, by plain runs, and by multi-executor schedules (which use
	// FleetOptions.Residency instead).
	Residency Residency
}

// FleetOptions configures the multi-device placements (fleet and hybrid
// schedules). The zero value means default: no per-device residency
// caching.
type FleetOptions struct {
	// Residency, consulted on packed runs, provides one device-memory
	// residency cache per fleet device (index = device). The semantics
	// mirror the coprocessor's Residency: a hit elides the interconnect
	// shipment of the device's spilled range of the column entirely, an
	// admitted miss ships (and pins) that whole range — so a resident
	// column is always fully resident, regardless of which query's zone
	// maps pruned what — and a refused admission degrades to the ordinary
	// cold transfer of the query's unpruned spilled morsels. nil entries
	// (or a short slice) disable caching for the remaining devices.
	// Ignored by single-device runs.
	Residency []Residency
	// MemoryBytes, when positive, replaces a fleet device's memory
	// capacity in ScheduleFleet's shard placement (spill experiments).
	MemoryBytes int64
}

// RunOptions configures one execution of a compiled plan. The options are
// grouped by the layer that consumes them — Partition for the morsel scan
// every placement shares, Fleet for the multi-device placements — and the
// zero value of every group means default.
type RunOptions struct {
	Partition PartitionOptions
	Fleet     FleetOptions
	// Trace asks the run for a span tree (ScheduledResult.Trace et al.):
	// per-assignment kernel/transfer/merge spans carrying simulated
	// seconds, wall clock and bytes moved. Off by default; the untraced
	// path allocates nothing for tracing.
	Trace bool
}

// MatchesZone reports whether the filter could match any value in the zone:
// false means every row in the zone's morsel fails the filter and the
// morsel can be skipped. It must never report false for a zone containing a
// matching value (the conservative direction FuzzZoneMap pins down); it may
// report true for a morsel with no matching rows — zone maps only know
// min/max, not which values are present.
func (f *Filter) MatchesZone(z ssb.Zone) bool {
	if f.In != nil {
		for _, v := range f.In {
			if z.Contains(v) {
				return true
			}
		}
		return false
	}
	return z.Overlaps(f.Lo, f.Hi)
}

// PruneMorsels evaluates the fact filters against each morsel's zone map
// and reports, per morsel, whether it can be skipped: a morsel is prunable
// when some filter cannot match its zone. Morsels without zone maps are
// never pruned. The check reads only per-morsel metadata (two int32s per
// filter), so it is charged as host work, not device time — which is
// exactly why pruning makes selective queries cheaper without perturbing
// the simulated cost of the rows that do get scanned.
func PruneMorsels(morsels []ssb.Morsel, filters []Filter) []bool {
	pruned := make([]bool, len(morsels))
	for i, m := range morsels {
		if m.Zones == nil {
			continue
		}
		for fi := range filters {
			z, ok := m.Zones[filters[fi].Col]
			if !ok {
				continue
			}
			if !filters[fi].MatchesZone(z) {
				pruned[i] = true
				break
			}
		}
	}
	return pruned
}

// morselRun is the resolved execution extent of one partitioned run: the
// full morsel list, the per-morsel pruning verdicts, the surviving morsels
// in row order, and the parallelism limiter.
type morselRun struct {
	morsels []ssb.Morsel
	pruned  []bool
	live    []ssb.Morsel
	scanned int64 // fact rows in surviving morsels
	lim     Limiter
	// packed is the fact encoding the scan reads (nil = plain columns);
	// residency is the coprocessor's device-memory column cache.
	packed    *ssb.PackedFact
	residency Residency
}

// morselRun resolves opts against the plan: the monolithic path uses a
// single zoneless morsel (no Partition scan, no pruning), the partitioned
// path fetches the plan's cached morsels and applies zone-map pruning to
// the query's fact filters.
func (p *Plan) morselRun(opts RunOptions) *morselRun {
	po := opts.Partition
	if po.Packed != nil && po.Packed.Rows() != p.ds.Lineorder.Rows() {
		panic(fmt.Sprintf("queries: packed encoding built for %d fact rows, dataset has %d",
			po.Packed.Rows(), p.ds.Lineorder.Rows()))
	}
	if po.Partitions < 1 {
		all := []ssb.Morsel{{Lo: 0, Hi: p.ds.Lineorder.Rows()}}
		return &morselRun{
			morsels:   all,
			pruned:    []bool{false},
			live:      all,
			scanned:   int64(p.ds.Lineorder.Rows()),
			lim:       po.Limiter,
			packed:    po.Packed,
			residency: po.Residency,
		}
	}
	morsels := p.Morsels(po.Partitions)
	ms := &morselRun{
		morsels:   morsels,
		pruned:    PruneMorsels(morsels, p.Query.FactFilters),
		lim:       po.Limiter,
		packed:    po.Packed,
		residency: po.Residency,
	}
	ms.live = make([]ssb.Morsel, 0, len(morsels))
	for i, m := range morsels {
		if ms.pruned[i] {
			continue
		}
		ms.live = append(ms.live, m)
		ms.scanned += int64(m.Rows())
	}
	return ms
}
