package sim

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"crystal/internal/device"
)

func TestConfigGeometry(t *testing.T) {
	c := Config{Threads: 128, ItemsPerThread: 4, Elems: 1000}
	if c.TileSize() != 512 {
		t.Errorf("tile size = %d", c.TileSize())
	}
	if c.NumBlocks() != 2 {
		t.Errorf("blocks = %d, want 2", c.NumBlocks())
	}
	if (Config{}).NumBlocks() != 0 {
		t.Error("empty config should have 0 blocks")
	}
	d := DefaultConfig(4096)
	if d.Threads != 128 || d.ItemsPerThread != 4 {
		t.Errorf("default config = %+v", d)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Threads: 256, ItemsPerThread: 4, Elems: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []Config{
		{Threads: 0, ItemsPerThread: 1},
		{Threads: 2048, ItemsPerThread: 1},
		{Threads: 32, ItemsPerThread: 0},
		{Threads: 32, ItemsPerThread: 1, Elems: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestRunCoversAllElementsExactlyOnce(t *testing.T) {
	const elems = 10_000
	seen := make([]int32, elems)
	cfg := Config{Threads: 64, ItemsPerThread: 3, Elems: elems}
	Run(device.V100(), cfg, func(b *Block) {
		for i := 0; i < b.TileElems; i++ {
			atomic.AddInt32(&seen[b.Offset+i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("element %d covered %d times", i, c)
		}
	}
}

func TestPartialFinalTile(t *testing.T) {
	cfg := Config{Threads: 128, ItemsPerThread: 4, Elems: 1000}
	var partial, full int32
	Run(device.V100(), cfg, func(b *Block) {
		if b.TileElems == b.Threads*b.ItemsPerThread {
			atomic.AddInt32(&full, 1)
		} else {
			atomic.AddInt32(&partial, 1)
			if b.TileElems != 1000-512 {
				t.Errorf("partial tile has %d elems", b.TileElems)
			}
		}
	})
	if full != 1 || partial != 1 {
		t.Errorf("full=%d partial=%d", full, partial)
	}
}

func TestAtomicAddSemanticsAndMetering(t *testing.T) {
	var ctr Counter
	cfg := Config{Threads: 32, ItemsPerThread: 1, Elems: 32 * 100}
	pass := Run(device.V100(), cfg, func(b *Block) {
		b.AtomicAdd(&ctr, 2)
	})
	if ctr.Value() != 200 {
		t.Errorf("counter = %d, want 200", ctr.Value())
	}
	if pass.AtomicOps != 100 {
		t.Errorf("atomics metered = %d, want 100", pass.AtomicOps)
	}
	ctr.Reset()
	if ctr.Value() != 0 {
		t.Error("reset failed")
	}
}

func TestAtomicAddReturnsOldValueSingleBlock(t *testing.T) {
	var ctr Counter
	Run(device.V100(), Config{Threads: 32, ItemsPerThread: 1, Elems: 1}, func(b *Block) {
		if old := b.AtomicAdd(&ctr, 5); old != 0 {
			t.Errorf("first AtomicAdd returned %d", old)
		}
		if old := b.AtomicAdd(&ctr, 3); old != 5 {
			t.Errorf("second AtomicAdd returned %d", old)
		}
	})
}

func TestTrafficMergedAcrossBlocks(t *testing.T) {
	cfg := Config{Threads: 128, ItemsPerThread: 4, Elems: 1 << 16}
	pass := Run(device.V100(), cfg, func(b *Block) {
		b.Pass().BytesRead += int64(b.TileElems) * 4
	})
	if pass.BytesRead != 4<<16 {
		t.Errorf("merged BytesRead = %d, want %d", pass.BytesRead, 4<<16)
	}
	if pass.Kernels != 1 {
		t.Errorf("kernels = %d", pass.Kernels)
	}
}

// noHelpers is a Gate that refuses every helper, so the calling goroutine is
// the launch's only worker.
type noHelpers struct{}

func (noHelpers) TryAcquire() bool { return false }
func (noHelpers) Release()         {}

// TestRunBoundedOneBlockPerWorker pins the launch's host cost: a worker
// reuses one Block (and its probe list) for every tile, each tile still
// starts from an empty meter, the kernel's Scratch is handed on from tile
// to tile but not from launch to launch, and the merged record is what
// per-tile Blocks produced.
func TestRunBoundedOneBlockPerWorker(t *testing.T) {
	cfg := Config{Threads: 128, ItemsPerThread: 4, Elems: 1 << 16}
	var first *Block
	var pass *device.Pass
	tile := new([512]int32)
	launch := func() {
		pass = RunBounded(device.V100(), cfg, func(b *Block) {
			if first == nil {
				first = b
				if b.Scratch != nil {
					t.Errorf("a launch's first block starts with scratch %T", b.Scratch)
				}
				b.Scratch = tile
			}
			if b != first {
				t.Errorf("block %d runs on a second Block though one worker executes", b.ID)
			}
			if b.Scratch != tile {
				t.Errorf("block %d lost the worker's scratch", b.ID)
			}
			if m := b.Pass(); m.BytesRead != 0 || m.AtomicOps != 0 || len(m.Probes) != 0 {
				t.Errorf("block %d starts from a used meter: %v", b.ID, m)
			}
			b.Pass().BytesRead += int64(b.TileElems) * 4
			b.Pass().AddProbes(device.ProbeSet{Count: 3, StructBytes: 1 << 10})
			b.Pass().AddProbes(device.ProbeSet{Count: 1, StructBytes: int64(1+b.ID%2) << 20})
		}, noHelpers{})
		first = nil
	}
	launch()
	blocks := int64(cfg.NumBlocks())
	if pass.BytesRead != 4<<16 || len(pass.Probes) != 3 || pass.Probes[0].Count != 3*blocks {
		t.Errorf("merged record = %v with probes %+v", pass, pass.Probes)
	}
	if allocs := testing.AllocsPerRun(5, launch); allocs > 16 {
		t.Errorf("a %d-block launch allocates %.0f times, want a handful per worker", blocks, allocs)
	}
}

func TestVectorEfficiency(t *testing.T) {
	if e := vectorEff(4); e != 1.0 {
		t.Errorf("IPT=4 eff = %f", e)
	}
	if e1, e2 := vectorEff(1), vectorEff(2); !(e1 < e2 && e2 < 1.0) {
		t.Errorf("vector efficiency should increase with IPT: %f %f", e1, e2)
	}
}

func TestOccupancyFactor(t *testing.T) {
	gpu := device.V100()
	small := occupancyFactor(gpu, 128)
	mid := occupancyFactor(gpu, 512)
	big := occupancyFactor(gpu, 1024)
	if small != 1.0 {
		t.Errorf("block 128 should be fully occupied, factor %f", small)
	}
	if !(small < mid && mid < big) {
		t.Errorf("occupancy penalty should grow with block size: %f %f %f", small, mid, big)
	}
	cpu := device.I76900()
	if occupancyFactor(cpu, 1024) != 1 {
		t.Error("CPU has no SM occupancy model")
	}
}

func TestLineSize(t *testing.T) {
	Run(device.V100(), Config{Threads: 32, ItemsPerThread: 1, Elems: 1}, func(b *Block) {
		if b.LineSize() != 128 {
			t.Errorf("V100 line = %d", b.LineSize())
		}
	})
	Run(device.I76900(), Config{Threads: 32, ItemsPerThread: 1, Elems: 1}, func(b *Block) {
		if b.LineSize() != 64 {
			t.Errorf("CPU line = %d", b.LineSize())
		}
	})
	var orphan Block
	if orphan.LineSize() != 128 {
		t.Error("orphan block default line size")
	}
}

// TestLaunchPassIsRunHeader pins the launch header priced launches start
// from: one kernel and the configuration's vectorization and occupancy
// factors, exactly what a launch over no elements returns and what every
// launch carries once its blocks are merged.
func TestLaunchPassIsRunHeader(t *testing.T) {
	for _, cfg := range []Config{{Threads: 256, ItemsPerThread: 8}, {Threads: 1024, ItemsPerThread: 1}} {
		dev := device.V100()
		head := LaunchPass(dev, cfg)
		if head.Kernels != 1 || head.VectorEff != vectorEff(cfg.ItemsPerThread) ||
			head.OccupancyFactor != occupancyFactor(dev, cfg.Threads) {
			t.Errorf("%+v: header %+v", cfg, head)
		}
		if empty := Run(dev, cfg, func(*Block) { t.Error("a launch over no elements ran a block") }); !reflect.DeepEqual(*empty, head) {
			t.Errorf("%+v: empty launch %+v, header %+v", cfg, *empty, head)
		}
		cfg.Elems = 3 * cfg.TileSize()
		full := Run(dev, cfg, func(b *Block) { b.Pass().BytesRead += 4 })
		if full.Kernels != 1 || full.VectorEff != head.VectorEff || full.OccupancyFactor != head.OccupancyFactor || full.BytesRead != 12 {
			t.Errorf("%+v: merged launch %+v, header %+v", cfg, *full, head)
		}
	}
}

// grantOne is a Gate with one helper slot.
type grantOne struct{ acquired, released atomic.Int64 }

func (g *grantOne) TryAcquire() bool { return g.acquired.Add(1) == 1 }
func (g *grantOne) Release()         { g.released.Add(1) }

// TestRunWithHelpersHonoursTheGate pins RunWithHelpers' two invariants on
// any host (GOMAXPROCS is raised for the test, so helpers can spawn): the
// calling goroutine always works, a gate bounds the helpers — one slot, one
// helper, released once — and no gate spawns up to GOMAXPROCS-1, never more
// than the work has items for.
func TestRunWithHelpersHonoursTheGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func(work int, gate Gate) int64 {
		var workers, next atomic.Int64
		RunWithHelpers(work, gate, func() {
			workers.Add(1)
			for next.Add(1) <= int64(work) {
			}
		})
		return workers.Load()
	}
	g := new(grantOne)
	if w := run(8, g); w != 2 || g.released.Load() != 1 {
		t.Errorf("one-slot gate: %d workers, %d releases, want 2 and 1", w, g.released.Load())
	}
	if w := run(8, nil); w != 4 {
		t.Errorf("no gate at GOMAXPROCS 4: %d workers, want 4", w)
	}
	if w := run(2, nil); w != 2 {
		t.Errorf("two items: %d workers, want 2", w)
	}
}
