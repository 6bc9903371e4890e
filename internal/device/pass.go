package device

import (
	"fmt"
	"time"
)

// ProbeSet records a batch of random accesses into one structure (a hash
// table, an offset array, ...). The structure size determines which cache
// level the working set lives in, and therefore the cost per probe.
type ProbeSet struct {
	// Count is the number of random probes.
	Count int64
	// StructBytes is the size of the structure being probed.
	StructBytes int64
	// Dependent marks probes whose addresses depend on prior probe results
	// (chained join pipelines); these stall CPU pipelines harder.
	Dependent bool
	// Writes marks the probes as random writes (scatter), priced against
	// write bandwidth when they miss cache.
	Writes bool
	// StallOverride replaces the device's default random-access stall factor
	// when positive (group prefetching hides most of the stall at the cost
	// of extra instructions, Section 4.3).
	StallOverride float64
}

func (ps ProbeSet) stall(s *Spec) float64 {
	if ps.StallOverride > 0 {
		return ps.StallOverride
	}
	st := s.RandomStall
	if ps.Dependent {
		st = s.DependentStall
	}
	if st == 0 {
		st = 1
	}
	return st
}

// Pass records the memory traffic and compute work of one parallel pass over
// the data (one kernel on the GPU, one parallel loop on the CPU). A Pass is
// the unit the paper's models price: streaming reads overlap with compute
// and with cache-resident probes (whichever is the bottleneck wins), then
// writes, atomics and branch penalties are added.
type Pass struct {
	// BytesRead is sequential/coalesced bytes read from device memory.
	BytesRead int64
	// BytesWritten is sequential/coalesced bytes written to device memory.
	BytesWritten int64
	// RandomWrites is the number of uncoalesced scattered writes; each costs
	// a full DRAM line (this is what sinks the independent-threads selection
	// kernel in Section 3.2).
	RandomWrites int64
	// Probes are the random-access batches performed by the pass.
	Probes []ProbeSet
	// AtomicOps is the number of contended global atomic updates.
	AtomicOps int64
	// ComputeCycles is the total scalar-equivalent compute work in
	// core-cycles across all elements; it is divided by cores*clock (the
	// caller folds SIMD lane counts in via CyclesScalar/CyclesSIMD).
	ComputeCycles float64
	// Mispredicts is the number of branch mispredictions incurred.
	Mispredicts int64
	// VectorEff derates streaming read bandwidth for partially vectorized
	// loads (Figure 9: items-per-thread 1/2/4). Zero means 1.0.
	VectorEff float64
	// OccupancyFactor multiplies the whole pass for GPU under-occupancy
	// (Figure 9: thread blocks of 512/1024). Zero means 1.0.
	OccupancyFactor float64
	// Kernels is the number of kernel launches this pass performed (>=1 for
	// GPU passes; 0 collapses to 1 launch only if Label is set... it is
	// simply added as launch overhead count).
	Kernels int
	// Label is a human-readable tag for debugging and reports.
	Label string
}

// Add merges o into p (used when parallel blocks accumulate into a kernel
// total). Scalar factors (VectorEff, OccupancyFactor) are taken from o when
// set.
func (p *Pass) Add(o *Pass) {
	p.BytesRead += o.BytesRead
	p.BytesWritten += o.BytesWritten
	p.RandomWrites += o.RandomWrites
	p.AtomicOps += o.AtomicOps
	p.ComputeCycles += o.ComputeCycles
	p.Mispredicts += o.Mispredicts
	p.Kernels += o.Kernels
	if o.VectorEff != 0 {
		p.VectorEff = o.VectorEff
	}
	if o.OccupancyFactor != 0 {
		p.OccupancyFactor = o.OccupancyFactor
	}
	for _, ps := range o.Probes {
		p.AddProbes(ps)
	}
}

// AddProbes accumulates a probe batch, merging with an existing batch
// against the same structure when possible to keep Pass compact.
func (p *Pass) AddProbes(ps ProbeSet) {
	if ps.Count == 0 {
		return
	}
	for i := range p.Probes {
		e := &p.Probes[i]
		if e.StructBytes == ps.StructBytes && e.Dependent == ps.Dependent && e.Writes == ps.Writes && e.StallOverride == ps.StallOverride {
			e.Count += ps.Count
			return
		}
	}
	p.Probes = append(p.Probes, ps)
}

// Reset clears the pass for reuse.
func (p *Pass) Reset() { *p = Pass{Label: p.Label} }

// String renders the pass's traffic record for debugging and reports.
func (p *Pass) String() string {
	return fmt.Sprintf("pass %q: read %d, write %d, randw %d, probes %d sets, atomics %d",
		p.Label, p.BytesRead, p.BytesWritten, p.RandomWrites, len(p.Probes), p.AtomicOps)
}

// probeTime prices one probe batch against the cache hierarchy: the portion
// of the structure resident at each level is served at that level's
// granularity and bandwidth; the remainder goes to DRAM at full line
// granularity, inflated by the device's stall factor.
func (s *Spec) probeTime(ps ProbeSet) float64 {
	if ps.Count == 0 {
		return 0
	}
	remaining := 1.0 // fraction of probes not yet served
	var t float64
	var covered float64 // fraction of structure covered by caches so far
	for _, c := range s.Caches {
		frac := 1.0
		if ps.StructBytes > 0 {
			frac = float64(c.Size) / float64(ps.StructBytes)
			if frac > 1 {
				frac = 1
			}
		}
		hitHere := frac - covered
		if hitHere < 0 {
			hitHere = 0
		}
		covered = frac
		if hitHere == 0 || c.Bandwidth == 0 {
			// Bandwidth 0: this level is never the bottleneck; probes served
			// here are free relative to the streaming term.
			remaining -= hitHere
			continue
		}
		bytes := float64(ps.Count) * hitHere * float64(c.ProbeGranularity)
		t += bytes / c.Bandwidth
		remaining -= hitHere
	}
	if remaining > 1e-12 {
		bytes := float64(ps.Count) * remaining * float64(s.LineSize)
		bw := s.ReadBandwidth
		if ps.Writes {
			bw = s.WriteBandwidth
		}
		t += bytes / bw * ps.stall(s)
	}
	return t
}

// PassTime converts a traffic record into simulated seconds on this device.
//
// The model is the paper's: streaming reads, cache-resident probes and
// compute overlap (the slowest wins); DRAM-missing probes, writes, atomic
// serialization, branch penalties and launch overhead add on top.
func (s *Spec) PassTime(p *Pass) float64 {
	veff := p.VectorEff
	if veff == 0 {
		veff = 1
	}
	tRead := float64(p.BytesRead) / (s.ReadBandwidth * veff)

	var tProbeCached, tProbeDRAM float64
	for _, ps := range p.Probes {
		full := s.probeTime(ps)
		if ps.Dependent && s.DependentProbeNs > 0 {
			// Chained probes are latency bound: each one serializes behind
			// the previous operator's result, so nothing overlaps (Section
			// 5.3). The cost floor is one un-hidden access per probe.
			lat := float64(ps.Count) * s.DependentProbeNs * 1e-9 / float64(s.Cores)
			if lat < full {
				lat = full
			}
			tProbeDRAM += lat
			continue
		}
		// Split the probe cost into the cache-served portion (overlaps with
		// streaming) and the DRAM portion (adds; it competes for the same
		// DRAM channels as the streaming reads).
		dram := s.dramPortion(ps)
		tProbeDRAM += dram
		tProbeCached += full - dram
	}

	tCompute := 0.0
	if p.ComputeCycles > 0 {
		tCompute = p.ComputeCycles / (float64(s.Cores) * s.ClockHz)
	}

	t := maxf(tRead, tProbeCached, tCompute) + tProbeDRAM
	t += float64(p.BytesWritten) / s.WriteBandwidth
	t += float64(p.RandomWrites) * float64(s.LineSize) / s.WriteBandwidth
	t += float64(p.AtomicOps) * s.AtomicNs * 1e-9
	if p.Mispredicts > 0 {
		t += float64(p.Mispredicts) * s.MispredictPenaltyCycles / (float64(s.Cores) * s.ClockHz)
	}
	if f := p.OccupancyFactor; f != 0 {
		t *= f
	}
	k := p.Kernels
	if k == 0 {
		k = 1
	}
	t += float64(k) * s.KernelLaunchNs * 1e-9
	return t
}

// dramPortion returns the DRAM-only component of a probe batch's time.
func (s *Spec) dramPortion(ps ProbeSet) float64 {
	if ps.Count == 0 {
		return 0
	}
	covered := 0.0
	for _, c := range s.Caches {
		frac := 1.0
		if ps.StructBytes > 0 {
			frac = float64(c.Size) / float64(ps.StructBytes)
			if frac > 1 {
				frac = 1
			}
		}
		if frac > covered {
			covered = frac
		}
	}
	remaining := 1 - covered
	if remaining <= 1e-12 {
		return 0
	}
	bytes := float64(ps.Count) * remaining * float64(s.LineSize)
	bw := s.ReadBandwidth
	if ps.Writes {
		bw = s.WriteBandwidth
	}
	return bytes / bw * ps.stall(s)
}

// Duration converts simulated seconds into a time.Duration.
func Duration(sec float64) time.Duration { return time.Duration(sec * 1e9) }

func maxf(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Clock accumulates simulated time across the passes of an operator or
// query. The zero value is ready to use.
type Clock struct {
	spec    *Spec
	seconds float64
	passes  []Pass
}

// NewClock returns a clock pricing passes against spec.
func NewClock(spec *Spec) *Clock { return &Clock{spec: spec} }

// Spec returns the device spec the clock prices against.
func (c *Clock) Spec() *Spec { return c.spec }

// Charge prices the pass and adds it to the accumulated time.
func (c *Clock) Charge(p *Pass) float64 {
	t := c.spec.PassTime(p)
	c.seconds += t
	c.passes = append(c.passes, *p)
	return t
}

// Seconds returns total simulated time.
func (c *Clock) Seconds() float64 { return c.seconds }

// Milliseconds returns total simulated time in ms.
func (c *Clock) Milliseconds() float64 { return c.seconds * 1e3 }

// Passes returns the charged passes (for reports and tests).
func (c *Clock) Passes() []Pass { return c.passes }

// LaunchSeconds returns the portion of the accumulated time that is fixed
// kernel-launch overhead (it must not be scaled when extrapolating a small
// functional run to the paper's input size).
func (c *Clock) LaunchSeconds() float64 {
	var launches int
	for i := range c.passes {
		k := c.passes[i].Kernels
		if k == 0 {
			k = 1
		}
		launches += k
	}
	return float64(launches) * c.spec.KernelLaunchNs * 1e-9
}

// Reset clears accumulated time.
func (c *Clock) Reset() { c.seconds = 0; c.passes = c.passes[:0] }
