package queries

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"crystal/internal/fleet"
	"crystal/internal/sched"
	"crystal/internal/ssb"
)

// The placements a shape may name: "auto" defers to the planner
// (planner.ChoosePlacement), the others are the host-resident placements.
const (
	PlacementAuto   = "auto"
	PlacementCPU    = "cpu"
	PlacementGPU    = "gpu"
	PlacementHybrid = "hybrid"
)

// Shape is where a compiled plan runs. Rows are the same on every shape;
// the shape decides the traffic the run meters, and so its seconds. A
// normalized shape is an engine over Partitions morsels (0: one scan); a
// fleet of GPUs devices on the GPU engine, merging over Link; or placement
// "gpu", "hybrid" or "auto", a GPU arm of GPUs devices behind Link over
// host-resident data with at least GPUs+1 morsels. Placement "cpu" is the
// CPU engine shape, with no GPUs and no link: a hybrid schedule with every
// morsel on its CPU arm prices bit-equal to the CPU engine. Placement "gpu"
// is not a fleet: its morsels ship over the link per query, where a
// fleet's shards live in device memory.
type Shape struct {
	Engine     Engine // full name or alias; placement shapes may leave it empty
	Placement  string // "" or a Placement* name, any case
	GPUs       int    // the fleet, or a placement's GPU arm (default 1)
	Link       string // "pcie" (the default) or "nvlink"
	Partitions int    // morsels; negative means 0
	Packed     bool   // scan the bit-packed fact encoding
}

// Normalize validates the shape and returns its one spelling for a fact
// table of rows rows: names canonicalised, negative counts 0, a placement's
// GPU arm at least one device and at most fleet.MaxGPUs, placement "cpu"
// the CPU engine shape, and a fleet's or placement's morsel count raised to
// the floor its schedule needs (GPUs, or GPUs+1), then clamped to what the
// table splits into. Its errors keep the service's wording.
func (sh Shape) Normalize(rows int) (Shape, error) {
	engine := EngineGPU // placement routing runs the tile-based kernels on its GPU arms
	if sh.Engine != "" || sh.Placement == "" {
		var err error
		if engine, err = ParseEngine(string(sh.Engine)); err != nil {
			return Shape{}, err
		}
	}
	out := Shape{Engine: engine, GPUs: max(sh.GPUs, 0), Partitions: max(sh.Partitions, 0), Packed: sh.Packed}
	floor := out.GPUs // a fleet schedule's morsels: one per device
	switch {
	case sh.Placement != "":
		placement, err := ParsePlacement(sh.Placement)
		if err != nil {
			return Shape{}, err
		}
		// The CPU placement is the CPU engine, so it may name it too.
		if engine != EngineGPU && (placement != PlacementCPU || engine != EngineCPU) {
			return Shape{}, fmt.Errorf("serve: placement routing owns engine choice; "+
				"leave Engine empty or name %q, got %q", EngineGPU, engine)
		}
		out.Placement = placement
		out.GPUs = max(out.GPUs, 1)
		floor = out.GPUs + 1
	case out.GPUs > 0:
		if engine != EngineGPU {
			return Shape{}, fmt.Errorf("serve: fleet execution runs the tile-based kernels; "+
				"engine must be %q, got %q", EngineGPU, engine)
		}
	default:
		return out, nil
	}
	link, err := fleet.ParseInterconnect(sh.Link)
	if err != nil {
		return Shape{}, err
	}
	if err := fleet.CheckGPUs(out.GPUs); err != nil {
		return Shape{}, err
	}
	if out.Placement == PlacementCPU {
		return out.Place(PlacementCPU), nil
	}
	out.Link = link.Name
	out.Partitions = max(out.Partitions, floor)
	if eff := ssb.EffectivePartitions(rows, out.Partitions); eff > 0 {
		out.Partitions = eff
	}
	return out, nil
}

// Place resolves an "auto" shape to the planner's choice, keeping the morsel
// count the choice was priced on.
func (sh Shape) Place(placement string) Shape {
	if placement == PlacementCPU {
		return Shape{Engine: EngineCPU, Placement: PlacementCPU, Partitions: sh.Partitions, Packed: sh.Packed}
	}
	sh.Placement = placement
	return sh
}

// Fleet is the fleet, or GPU arm, a normalized shape runs on.
func (sh Shape) Fleet() fleet.Spec {
	link, _ := fleet.ParseInterconnect(sh.Link) // Normalize validated it
	return fleet.Spec{GPUs: sh.GPUs, Link: link}
}

// AppendKey appends the shape's key, its fields NUL-separated, to dst. On
// normalized shapes equal keys mean equal shapes. "auto" stays "auto": the
// planner's choice is deterministic per dataset.
func (sh Shape) AppendKey(dst []byte) []byte {
	enc := "plain"
	if sh.Packed {
		enc = "packed"
	}
	dst = append(append(dst, sh.Engine...), 0)
	dst = append(strconv.AppendInt(dst, int64(sh.Partitions), 10), 0)
	dst = append(append(dst, enc...), 0)
	dst = append(strconv.AppendInt(dst, int64(sh.GPUs), 10), 0)
	dst = append(append(dst, sh.Link...), 0)
	return append(dst, sh.Placement...)
}

// Key is the shape's key as a string (AppendKey).
func (sh Shape) Key() string { return string(sh.AppendKey(make([]byte, 0, 64))) }

// Schedule places the plan on a normalized, resolved shape; it is the one
// switch from a shape to ScheduleEngine, ScheduleFleet or ScheduleHybrid.
// The morsel count comes from the shape, the rest from opts. cpuFrac is
// the live-row share on the host CPU engine: 1 on the CPU engine, the split
// on "hybrid", 0 otherwise.
func (p *Plan) Schedule(sh Shape, opts RunOptions) (s sched.Schedule, cpuFrac float64, err error) {
	opts.Partition.Partitions = sh.Partitions
	switch {
	case sh.Placement == PlacementAuto:
		return s, 0, fmt.Errorf("queries: placement %q must be resolved before scheduling", sh.Placement)
	case sh.Placement == PlacementGPU:
		return p.ScheduleHybrid(sh.Fleet(), 0, opts)
	case sh.Placement == PlacementHybrid:
		return p.ScheduleHybrid(sh.Fleet(), -1, opts)
	case sh.GPUs > 0:
		s, err = p.ScheduleFleet(sh.Fleet(), opts)
		return s, 0, err
	case sh.Engine == EngineCPU:
		cpuFrac = 1
	}
	return p.ScheduleEngine(sh.Engine, opts), cpuFrac, nil
}

// ParsePlacement canonicalizes a placement name, case-insensitive.
func ParsePlacement(name string) (string, error) {
	switch p := strings.ToLower(strings.TrimSpace(name)); p {
	case PlacementAuto, PlacementCPU, PlacementGPU, PlacementHybrid:
		return p, nil
	default:
		return "", fmt.Errorf("serve: unknown placement %q (want auto, cpu, gpu or hybrid)", name)
	}
}

// engineAliases names each engine's short, CLI/HTTP friendly aliases; the
// first is its canonical one.
var engineAliases = map[Engine][]string{
	EngineGPU:     {"gpu"},
	EngineCPU:     {"cpu"},
	EngineHyper:   {"hyper"},
	EngineMonet:   {"monet", "monetdb"},
	EngineOmnisci: {"omnisci"},
	EngineCoproc:  {"coproc"},
}

// ParseEngine resolves an engine from its full name ("Standalone GPU") or
// a short alias ("gpu", "cpu", "hyper", "monet", "omnisci", "coproc").
func ParseEngine(name string) (Engine, error) {
	alias := strings.ToLower(strings.TrimSpace(name))
	for e, aliases := range engineAliases {
		if string(e) == name || slices.Contains(aliases, alias) {
			return e, nil
		}
	}
	return "", fmt.Errorf("serve: unknown engine %q", name)
}

// EngineAlias returns the canonical short alias for an engine.
func EngineAlias(e Engine) string {
	if aliases, ok := engineAliases[e]; ok {
		return aliases[0]
	}
	return string(e)
}
