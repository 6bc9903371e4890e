package queries

// FleetDevice is one device's share of a fleet execution: what it was
// assigned, what it scanned, and what its slice of the simulated time and
// interconnect traffic looked like. It is the fleet-shaped wire rendering of
// ExecutorResult (see FleetDevices).
type FleetDevice struct {
	// Device is the device index in [0, GPUs).
	Device int `json:"device"`
	// Morsels is the number of morsels sharded onto the device; Pruned
	// counts those its zone maps skipped, and Rows the fact rows it
	// actually scanned.
	Morsels int   `json:"morsels"`
	Pruned  int   `json:"pruned"`
	Rows    int64 `json:"rows"`
	// Seconds is the device's simulated time: its kernel launch over the
	// shard (replicated dimension builds included), overlapped with the
	// interconnect shipment of its spilled morsels, coprocessor style.
	Seconds float64 `json:"seconds"`
	// SpillBytes is the interconnect traffic the device's spilled morsels
	// cost this query (0 when the shard fits in device memory), and
	// ResidentCols the spilled columns a residency cache served without
	// shipping anything.
	SpillBytes   int64 `json:"spill_bytes"`
	ResidentCols int   `json:"resident_cols"`
	// Groups is the size of the device's partial aggregate table — the
	// rows it contributes to the cross-device merge.
	Groups int `json:"groups"`
}

// FleetDevices renders placement-agnostic executor telemetry as the
// fleet-shaped per-device view the serving layer reports for fleet
// requests.
func FleetDevices(ers []ExecutorResult) []FleetDevice {
	out := make([]FleetDevice, 0, len(ers))
	for _, er := range ers {
		out = append(out, FleetDevice{
			Device:       er.Device,
			Morsels:      er.Morsels,
			Pruned:       er.Pruned,
			Rows:         er.Rows,
			Seconds:      er.Seconds,
			SpillBytes:   er.ShipBytes,
			ResidentCols: er.ResidentCols,
			Groups:       er.Groups,
		})
	}
	return out
}
