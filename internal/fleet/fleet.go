// Package fleet models a multi-GPU deployment: N identical GPUs plus the
// host CPU, connected by a configurable interconnect. The extended paper
// (Section 7) closes by arguing that once a working set outgrows one GPU's
// 32 GB of HBM, the bytes-moved model should extend across several devices
// and the link between them — which is exactly what this package prices.
//
// The deployment model is range sharding: the fact table's zone-mapped
// morsels (ssb.Dataset.Partition) are split into one contiguous shard per
// device, each shard resident in its device's memory. Devices execute their
// shards concurrently, so fleet time is the slowest device (its shard scan,
// plus any interconnect traffic for morsels that did not fit in device
// memory) plus the cross-device merge of the partial aggregates.
//
// Assign is the shard scheduler's mechanism: it produces the shard map and
// the per-device spill accounting the cost model (planner.FleetCost) and
// the executor (queries.Plan.ScheduleFleet) both consume, so the scheduler's
// prices and the engine's simulated seconds can never disagree about
// placement.
package fleet

import (
	"fmt"
	"strings"

	"crystal/internal/device"
	"crystal/internal/ssb"
)

// Interconnect is the link connecting the fleet's devices to each other and
// to the host: spilled shards and partial aggregates cross it.
type Interconnect struct {
	// Name is the canonical short name ("pcie", "nvlink").
	Name string
	// Bandwidth is the measured per-direction bandwidth in bytes/second.
	Bandwidth float64
}

// PCIe is the paper's measured PCIe 3.0 x16 link (Section 5: 12.8 GBps) —
// the interconnect of the single-GPU coprocessor deployment.
func PCIe() Interconnect { return Interconnect{Name: "pcie", Bandwidth: device.PCIeBandwidth} }

// NVLink is an NVLink-class link: six NVLink 2.0 bricks per V100 give
// 150 GBps of aggregate per-direction bandwidth; derated by the same ~0.8
// measured-vs-nominal factor the paper observed on PCIe, that is 120 GBps.
func NVLink() Interconnect { return Interconnect{Name: "nvlink", Bandwidth: 120e9} }

// Interconnects lists the supported links in report order.
func Interconnects() []Interconnect { return []Interconnect{PCIe(), NVLink()} }

// ParseInterconnect resolves a link by name; the empty string means PCIe
// (the conservative default — a fleet you did not configure is a bunch of
// cards on the host's PCIe fabric).
func ParseInterconnect(name string) (Interconnect, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "pcie":
		return PCIe(), nil
	case "nvlink":
		return NVLink(), nil
	}
	return Interconnect{}, fmt.Errorf("fleet: unknown interconnect %q (want pcie or nvlink)", name)
}

// TransferTime returns the time to ship n bytes across the link.
func (ic Interconnect) TransferTime(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / ic.Bandwidth
}

// String renders the link's headline figure.
func (ic Interconnect) String() string {
	return fmt.Sprintf("%s (%.1f GBps)", ic.Name, ic.Bandwidth/1e9)
}

// MaxGPUs bounds the fleet size a Spec accepts; it exists so a malformed
// request cannot make the scheduler allocate per-device state for an
// absurd device count.
const MaxGPUs = 64

// CheckGPUs reports whether n devices make a fleet a Spec accepts:
// 1..MaxGPUs.
func CheckGPUs(n int) error {
	if n < 1 {
		return fmt.Errorf("fleet: need at least 1 GPU, got %d", n)
	}
	if n > MaxGPUs {
		return fmt.Errorf("fleet: %d GPUs exceeds the %d-device fleet bound", n, MaxGPUs)
	}
	return nil
}

// Spec describes one fleet deployment: how many GPUs, which device model
// each is, and the interconnect between them and the host.
type Spec struct {
	// GPUs is the number of devices (1..MaxGPUs).
	GPUs int
	// Device is the per-GPU specification; nil defaults to the V100. Its
	// MemoryBytes bounds each shard's resident bytes (Assign's spill
	// accounting); everything else prices the per-device execution.
	Device *device.Spec
	// Link is the interconnect; the zero value defaults to PCIe.
	Link Interconnect
}

// Normalized validates the spec and fills in the defaults (V100 devices,
// PCIe link).
func (s Spec) Normalized() (Spec, error) {
	if err := CheckGPUs(s.GPUs); err != nil {
		return Spec{}, err
	}
	if s.Device == nil {
		s.Device = device.V100()
	}
	if s.Link.Name == "" {
		s.Link = PCIe()
	}
	if s.Link.Bandwidth <= 0 {
		return Spec{}, fmt.Errorf("fleet: interconnect %q has no bandwidth", s.Link.Name)
	}
	return s, nil
}

// String renders the fleet shape.
func (s Spec) String() string {
	name := "V100"
	if s.Device != nil {
		name = s.Device.Name
	}
	return fmt.Sprintf("%dx %s over %s", s.GPUs, name, s.Link.Name)
}

// Shard is one device's portion of the morsel list: which morsels it owns,
// and which of them did not fit in device memory and therefore stay on the
// host (shipped over the interconnect when a query touches them).
type Shard struct {
	// Device is the device index in [0, GPUs).
	Device int
	// Morsels are the owned morsel indices, ascending (a contiguous range
	// of the input list).
	Morsels []int
	// Rows is the total fact rows across the owned morsels.
	Rows int64
	// ResidentBytes is the storage pinned in device memory; it never
	// exceeds the capacity Assign was given.
	ResidentBytes int64
	// Spilled are the owned morsel indices that exceeded the device's
	// capacity (always a suffix of Morsels); SpillBytes is their storage,
	// which lives on the host instead.
	Spilled    []int
	SpillBytes int64
}

// Resident reports how many owned morsels are pinned in device memory.
func (sh *Shard) Resident() int { return len(sh.Morsels) - len(sh.Spilled) }

// Assign range-shards morsels across gpus devices, balanced by morsel
// count (morsels are themselves balanced to within one alignment quantum),
// then applies spill accounting per device: morsels accumulate into device
// memory in order until capacity is exhausted, and the remainder of the
// shard spills to the host. Every morsel lands on exactly one device, no
// device holds more resident bytes than capacity, and a non-positive
// capacity spills everything — the graceful-degradation floor.
//
// bytes prices one morsel's storage footprint (plain columns or the packed
// encoding); it must be non-negative.
func Assign(morsels []ssb.Morsel, gpus int, capacity int64, bytes func(ssb.Morsel) int64) []Shard {
	if gpus < 1 {
		gpus = 1
	}
	shards := make([]Shard, gpus)
	n := len(morsels)
	for d := 0; d < gpus; d++ {
		sh := &shards[d]
		sh.Device = d
		lo, hi := d*n/gpus, (d+1)*n/gpus
		for mi := lo; mi < hi; mi++ {
			sh.Morsels = append(sh.Morsels, mi)
			sh.Rows += int64(morsels[mi].Rows())
			b := bytes(morsels[mi])
			if len(sh.Spilled) == 0 && sh.ResidentBytes+b <= capacity {
				sh.ResidentBytes += b
				continue
			}
			// Once one morsel spills, the rest of the shard spills too:
			// shards are contiguous row ranges, and splitting one around a
			// hole would break the sequential layout the scan model prices.
			sh.Spilled = append(sh.Spilled, mi)
			sh.SpillBytes += b
		}
	}
	return shards
}
