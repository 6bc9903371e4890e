package queries

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

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
}

// FleetOptions configures the multi-device placements (fleet and hybrid
// schedules). The zero value means default: the V100's memory.
type FleetOptions struct {
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
	// DeviceCacheBytes is the device memory that keeps packed fact columns
	// resident, and ResidentColumns of the packed encoding and this capacity
	// is the resident set. On packed runs the coprocessor ships nothing for
	// a resident referenced column, and a fleet device (ScheduleFleet)
	// nothing for a resident column's spilled range; every other column
	// ships its ordinary cold bytes. Hybrid arms and plain runs never
	// consult it. 0 or less means nothing is resident.
	DeviceCacheBytes int64
	// Trace asks the run for a span tree (ScheduledResult.Trace et al.):
	// per-assignment kernel/transfer/merge spans carrying simulated
	// seconds, wall clock and bytes moved. Off by default; the untraced
	// path allocates nothing for tracing.
	Trace bool
}

// ResidentColumns is the residency policy: the packed fact columns a
// device keeps resident in capacity bytes, and their total packed size. It
// walks every fact column once, most referenced by the catalog (All)
// first, ties by name, and keeps each whose whole packed size fits the
// capacity still left; a column that does not fit is skipped and the walk
// goes on. The set depends on the encoding and the capacity alone, never
// on which requests ran before, so every run against one encoding prices
// the same transfers. A capacity of 0 or less keeps nothing.
func ResidentColumns(pf *ssb.PackedFact, capacity int64) (cols []string, bytes int64) {
	if capacity <= 0 {
		return nil, 0
	}
	for _, c := range residencyOrder() {
		if b := pf.Col(c).Bytes(); b <= capacity-bytes {
			cols = append(cols, c)
			bytes += b
		}
	}
	return cols, bytes
}

// residencyOrder is ResidentColumns' walk: every fact column, by how many
// catalog queries reference it, most first, then by name.
var residencyOrder = sync.OnceValue(func() []string {
	refs := map[string]int{}
	for _, q := range All() {
		for _, c := range q.ReferencedFactColumns() {
			refs[c]++
		}
	}
	cols := slices.Clone(ssb.FactColumns())
	slices.SortFunc(cols, func(a, b string) int {
		return cmp.Or(cmp.Compare(refs[b], refs[a]), strings.Compare(a, b))
	})
	return cols
})

// residentIn is the resident set a run over ms consults: the policy's on a
// packed run, nothing on a plain one.
func residentIn(ms *morselRun, capacity int64) []string {
	if ms.packed == nil {
		return nil
	}
	cols, _ := ResidentColumns(ms.packed, capacity)
	return cols
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
	// packed is the fact encoding the scan reads (nil = plain columns).
	packed *ssb.PackedFact
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
			morsels: all,
			pruned:  []bool{false},
			live:    all,
			scanned: int64(p.ds.Lineorder.Rows()),
			lim:     po.Limiter,
			packed:  po.Packed,
		}
	}
	morsels := p.Morsels(po.Partitions)
	ms := &morselRun{
		morsels: morsels,
		pruned:  PruneMorsels(morsels, p.Query.FactFilters),
		lim:     po.Limiter,
		packed:  po.Packed,
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
