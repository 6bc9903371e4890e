package device

import (
	"math"
	"testing"
)

func TestBandwidthRatio(t *testing.T) {
	gpu, cpu := V100(), I76900()
	r := gpu.BandwidthRatio(cpu)
	if r < 16.0 || r > 16.8 {
		t.Fatalf("bandwidth ratio = %.2f, want ~16.2 (paper Section 4)", r)
	}
	if !gpu.IsGPU() {
		t.Error("V100 should report IsGPU")
	}
	if cpu.IsGPU() {
		t.Error("i7-6900 should not report IsGPU")
	}
}

// TestMemoryBytes pins the Table 2 device-memory capacities the serving
// layer's residency cache sizes itself to.
func TestMemoryBytes(t *testing.T) {
	if got := V100().MemoryBytes; got != 32<<30 {
		t.Errorf("V100 memory = %d, want 32 GB", got)
	}
	if got := I76900().MemoryBytes; got <= V100().MemoryBytes {
		t.Errorf("host memory (%d) should exceed device memory", got)
	}
}

func TestLastLevelCache(t *testing.T) {
	if got := V100().LastLevelCache().Size; got != 6<<20 {
		t.Errorf("V100 LLC = %d, want 6 MB", got)
	}
	if got := I76900().LastLevelCache().Size; got != 20<<20 {
		t.Errorf("CPU LLC = %d, want 20 MB", got)
	}
	var empty Spec
	if empty.LastLevelCache().Size != 0 {
		t.Error("empty spec LLC should be zero value")
	}
}

func TestStreamingPassTime(t *testing.T) {
	// A pure streaming pass should be priced at bytes/bandwidth.
	gpu := V100()
	p := &Pass{BytesRead: 880e9} // exactly one second of reads
	got := gpu.PassTime(p)
	if math.Abs(got-1.0) > 1e-3 {
		t.Errorf("1s of streaming reads priced at %.4fs", got)
	}
	p = &Pass{BytesWritten: 880e9}
	got = gpu.PassTime(p)
	if math.Abs(got-1.0) > 1e-3 {
		t.Errorf("1s of streaming writes priced at %.4fs", got)
	}
}

func TestPassTimeMonotonicInBytes(t *testing.T) {
	for _, spec := range []*Spec{V100(), I76900()} {
		prev := 0.0
		for n := int64(1 << 20); n <= 1<<30; n <<= 1 {
			tm := spec.PassTime(&Pass{BytesRead: n, BytesWritten: n / 2})
			if tm < prev {
				t.Fatalf("%s: time decreased from %.6f to %.6f at %d bytes", spec.Name, prev, tm, n)
			}
			prev = tm
		}
	}
}

func TestProbeTimeMonotonicInStructSize(t *testing.T) {
	// Larger hash tables can only be slower (paper Figure 13 staircase).
	for _, spec := range []*Spec{V100(), I76900()} {
		prev := 0.0
		for h := int64(8 << 10); h <= 1<<30; h <<= 1 {
			p := &Pass{Probes: []ProbeSet{{Count: 1 << 24, StructBytes: h}}}
			tm := spec.PassTime(p)
			if tm+1e-12 < prev {
				t.Fatalf("%s: probe time decreased at struct=%d: %.6f -> %.6f", spec.Name, h, prev, tm)
			}
			prev = tm
		}
	}
}

func TestCacheResidentProbesOverlapWithStreaming(t *testing.T) {
	// A tiny hash table is fully cache resident on the CPU: probe time should
	// vanish into the streaming term (the flat left of Figure 13).
	cpu := I76900()
	stream := &Pass{BytesRead: 2 << 30}
	withProbes := &Pass{BytesRead: 2 << 30, Probes: []ProbeSet{{Count: 1 << 26, StructBytes: 8 << 10}}}
	a, b := cpu.PassTime(stream), cpu.PassTime(withProbes)
	if math.Abs(a-b)/a > 0.01 {
		t.Errorf("cache-resident probes should be free: %.4f vs %.4f", a, b)
	}
}

func TestDRAMProbesAddToStreaming(t *testing.T) {
	cpu := I76900()
	stream := &Pass{BytesRead: 2 << 30}
	withProbes := &Pass{BytesRead: 2 << 30, Probes: []ProbeSet{{Count: 1 << 26, StructBytes: 1 << 30}}}
	a, b := cpu.PassTime(stream), cpu.PassTime(withProbes)
	if b < a*2 {
		t.Errorf("out-of-cache probes should dominate: stream %.4f, with probes %.4f", a, b)
	}
}

func TestDependentProbesSlowerOnCPUOnly(t *testing.T) {
	mk := func(dep bool) *Pass {
		return &Pass{Probes: []ProbeSet{{Count: 1 << 26, StructBytes: 1 << 30, Dependent: dep}}}
	}
	cpu := I76900()
	indep, dep := cpu.PassTime(mk(false)), cpu.PassTime(mk(true))
	if dep <= indep*1.5 {
		t.Errorf("dependent probes should stall CPU ~2x harder: %.4f vs %.4f", indep, dep)
	}
	gpu := V100()
	gi, gd := gpu.PassTime(mk(false)), gpu.PassTime(mk(true))
	if math.Abs(gi-gd) > 1e-9 {
		t.Errorf("GPU hides latency; dependent should equal independent: %.6f vs %.6f", gi, gd)
	}
}

func TestJoinSegmentRatios(t *testing.T) {
	// Reproduce the three ratio regimes of Section 4.3 from the raw model.
	gpu, cpu := V100(), I76900()
	probePass := func(ht int64) *Pass {
		return &Pass{
			BytesRead: 8 * 256 << 20, // key+payload for 256M probe tuples
			Probes:    []ProbeSet{{Count: 256 << 20, StructBytes: ht}},
		}
	}
	ratio := func(ht int64) float64 {
		return cpu.PassTime(probePass(ht)) / gpu.PassTime(probePass(ht))
	}
	// HT in L2 on both (32KB-128KB): ~5.5x per the paper.
	if r := ratio(128 << 10); r < 4 || r > 9 {
		t.Errorf("L2-resident segment ratio = %.1f, want ~5.5", r)
	}
	// HT in GPU L2 / CPU L3 (1-4MB): ~14.5x.
	if r := ratio(2 << 20); r < 11 || r > 18 {
		t.Errorf("L3-vs-L2 segment ratio = %.1f, want ~14.5", r)
	}
	// HT out of cache everywhere (>=128MB): ~10.5x.
	if r := ratio(512 << 20); r < 8 || r > 13 {
		t.Errorf("out-of-cache segment ratio = %.1f, want ~10.5", r)
	}
}

func TestAtomicAndMispredictCosts(t *testing.T) {
	gpu := V100()
	p := &Pass{AtomicOps: 1e6}
	if tm := gpu.PassTime(p); tm < 1e-3 {
		t.Errorf("1M atomics at 1.2ns should cost >=1.2ms, got %.6f", tm)
	}
	cpu := I76900()
	p = &Pass{Mispredicts: 1 << 27}
	tm := cpu.PassTime(p)
	want := float64(1<<27) * cpu.MispredictPenaltyCycles / (float64(cpu.Cores) * cpu.ClockHz)
	if math.Abs(tm-want)/want > 0.05 {
		t.Errorf("mispredict pricing = %.6f, want %.6f", tm, want)
	}
}

func TestVectorEffAndOccupancy(t *testing.T) {
	gpu := V100()
	base := gpu.PassTime(&Pass{BytesRead: 1 << 30})
	derated := gpu.PassTime(&Pass{BytesRead: 1 << 30, VectorEff: 0.5})
	if derated < base*1.8 {
		t.Errorf("VectorEff 0.5 should double read time: %.5f vs %.5f", base, derated)
	}
	occ := gpu.PassTime(&Pass{BytesRead: 1 << 30, OccupancyFactor: 1.5})
	if occ < base*1.4 {
		t.Errorf("occupancy factor should scale the pass: %.5f vs %.5f", base, occ)
	}
}

func TestPassAddAndAddProbes(t *testing.T) {
	a := &Pass{BytesRead: 10, Probes: []ProbeSet{{Count: 5, StructBytes: 100}}}
	b := &Pass{BytesRead: 7, BytesWritten: 3, AtomicOps: 2,
		Probes: []ProbeSet{{Count: 5, StructBytes: 100}, {Count: 1, StructBytes: 200}}}
	a.Add(b)
	if a.BytesRead != 17 || a.BytesWritten != 3 || a.AtomicOps != 2 {
		t.Errorf("Add merged wrong: %+v", a)
	}
	if len(a.Probes) != 2 || a.Probes[0].Count != 10 {
		t.Errorf("AddProbes should merge same-struct batches: %+v", a.Probes)
	}
	a.AddProbes(ProbeSet{}) // no-op
	if len(a.Probes) != 2 {
		t.Error("empty probe batch should be ignored")
	}
}

func TestClock(t *testing.T) {
	c := NewClock(V100())
	if c.Spec().Name != "Nvidia V100" {
		t.Error("clock spec")
	}
	c.Charge(&Pass{BytesRead: 880e9})
	if s := c.Seconds(); math.Abs(s-1) > 1e-3 {
		t.Errorf("clock = %.4fs, want 1s", s)
	}
	if ms := c.Milliseconds(); math.Abs(ms-1000) > 1 {
		t.Errorf("ms = %.1f", ms)
	}
	if len(c.Passes()) != 1 {
		t.Error("passes not recorded")
	}
	c.Reset()
	if c.Seconds() != 0 || len(c.Passes()) != 0 {
		t.Error("reset failed")
	}
}

func TestTransferTime(t *testing.T) {
	// Shipping 12.8 GB over PCIe should take one second.
	if tm := TransferTime(12.8e9); math.Abs(tm-1) > 1e-9 {
		t.Errorf("PCIe transfer of 12.8GB = %.4fs, want 1s", tm)
	}
}

func TestStringers(t *testing.T) {
	if s := V100().String(); s == "" {
		t.Error("empty spec string")
	}
	p := Pass{Label: "probe"}
	if s := p.String(); s == "" {
		t.Error("empty pass string")
	}
}

func TestDurationConversion(t *testing.T) {
	if d := Duration(1.5); d.Seconds() != 1.5 {
		t.Errorf("Duration(1.5) = %v", d)
	}
}
