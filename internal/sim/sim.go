// Package sim is the GPU execution substrate: a deterministic simulator of
// the CUDA-style grid/thread-block model the paper's Crystal library runs
// on. Kernels are Go functions invoked once per thread block; blocks execute
// in parallel across host goroutines. Inside a block, the SIMT lockstep of a
// real GPU is emulated by the Crystal primitives iterating over the block's
// threads, which preserves the algorithms' structure (per-thread registers,
// shared-memory tiles, block-wide barriers) without a cycle-level machine.
//
// Every primitive meters its global-memory traffic, random probes and atomic
// updates into the launch's device.Pass; the V100 hierarchy model in
// internal/device then prices that traffic into simulated time. This is the
// substitution DESIGN.md documents for the missing physical GPU.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"crystal/internal/device"
)

// Config describes one kernel launch.
type Config struct {
	// Threads is the thread-block size (NT). The paper uses 32..1024.
	Threads int
	// ItemsPerThread is IPT; tile size = Threads*ItemsPerThread.
	ItemsPerThread int
	// Elems is the number of input elements the grid covers; the number of
	// blocks is ceil(Elems/TileSize).
	Elems int
}

// TileSize returns Threads*ItemsPerThread.
func (c Config) TileSize() int { return c.Threads * c.ItemsPerThread }

// NumBlocks returns the grid size for the launch.
func (c Config) NumBlocks() int {
	ts := c.TileSize()
	if ts == 0 {
		return 0
	}
	return (c.Elems + ts - 1) / ts
}

// DefaultConfig is the tile configuration the paper settles on for all
// workloads (Section 3.3: thread block 128, 4 items per thread; the SSB
// evaluation uses 256x8 — both saturate bandwidth).
func DefaultConfig(elems int) Config {
	return Config{Threads: 128, ItemsPerThread: 4, Elems: elems}
}

// Counter is a device-global atomic counter (the output cursor of Section
// 3.2). Updates are functional and metered.
type Counter struct {
	v int64
}

// Value returns the current counter value.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Reset sets the counter to zero.
func (c *Counter) Reset() { atomic.StoreInt64(&c.v, 0) }

// Block is the execution context handed to a kernel for one thread block.
// It carries the block's position in the grid, its tile extent, and the
// traffic meter the Crystal primitives charge into.
type Block struct {
	// ID is the block index in [0, NumBlocks).
	ID int
	// Threads is the thread-block size.
	Threads int
	// ItemsPerThread is IPT.
	ItemsPerThread int
	// Offset is the element offset of this block's tile.
	Offset int
	// TileElems is the number of valid elements in this block's tile (the
	// last tile of the grid may be partial).
	TileElems int
	// Scratch is the kernel's per-worker state, handed on to the next
	// block the same worker runs so a kernel can keep its tiles here
	// instead of allocating them per block. It is nil in a launch's first
	// block on each worker.
	Scratch any

	launch *Launch
	pass   device.Pass // per-block meter, merged into the launch at the end
}

// Pass returns the block's traffic meter for primitives to charge.
func (b *Block) Pass() *device.Pass { return &b.pass }

// LineSize returns the DRAM transaction granularity of the device the block
// runs on (used by selective loads to count touched lines).
func (b *Block) LineSize() int64 {
	if b.launch == nil || b.launch.dev == nil {
		return 128
	}
	return b.launch.dev.LineSize
}

// AtomicAdd adds delta to a device-global counter and returns the value the
// counter held before the update (CUDA atomicAdd semantics). Each call
// models one serialized global atomic.
func (b *Block) AtomicAdd(c *Counter, delta int64) int64 {
	b.pass.AtomicOps++
	return atomic.AddInt64(&c.v, delta) - delta
}

// Gate bounds helper parallelism for a launch or a morsel scan. TryAcquire
// reports whether one extra worker may start (without blocking); every
// successful acquire must be paired with a Release. A nil Gate means
// "unbounded up to GOMAXPROCS". The serving layer shares one Gate across
// all in-flight requests so intra-query parallelism can never starve
// inter-query throughput: the submitting goroutine always executes, and
// helpers beyond the gate's capacity simply don't spawn.
type Gate interface {
	TryAcquire() bool
	Release()
}

// Launch is one kernel execution: a grid of blocks over an input extent.
type Launch struct {
	Cfg  Config
	dev  *device.Spec
	pass device.Pass
	mu   sync.Mutex
}

// Kernel is the per-block entry point.
type Kernel func(b *Block)

// Run launches the kernel over the grid described by cfg on dev, executes
// every block (in parallel across host cores), and returns the merged
// traffic record for the launch, priced by the caller's clock.
//
// The traffic record already includes the launch count and the occupancy /
// vectorization factors implied by the tile configuration (Figure 9).
func Run(dev *device.Spec, cfg Config, kernel Kernel) *device.Pass {
	return RunBounded(dev, cfg, kernel, nil)
}

// RunBounded is Run with helper parallelism bounded by gate: the calling
// goroutine always executes blocks (so a launch makes progress even when
// the gate is exhausted), and up to GOMAXPROCS-1 additional workers spawn
// only while gate.TryAcquire grants slots. The traffic record — and
// therefore the simulated time — is identical for every gate; only host
// wall-clock parallelism changes.
//
// Each worker owns one Block and resets it per tile, keeping the backing
// array of its meter's probe list and the kernel's Scratch, so a launch
// allocates per worker rather than per tile; a kernel must not retain the
// *Block past its return. Every block is still merged into the launch on
// its own, as it finishes: Pass.ComputeCycles is a float, and summing per
// worker first would change the rounding of the total.
func RunBounded(dev *device.Spec, cfg Config, kernel Kernel, gate Gate) *device.Pass {
	l := &Launch{Cfg: cfg, dev: dev, pass: LaunchPass(dev, cfg)}

	numBlocks := cfg.NumBlocks()
	if numBlocks == 0 {
		return &l.pass
	}
	var next int64
	worker := func() {
		var b Block
		for {
			id := int(atomic.AddInt64(&next, 1) - 1)
			if id >= numBlocks {
				return
			}
			b = Block{
				ID:             id,
				Threads:        cfg.Threads,
				ItemsPerThread: cfg.ItemsPerThread,
				Offset:         id * cfg.TileSize(),
				Scratch:        b.Scratch,
				launch:         l,
				pass:           device.Pass{Probes: b.pass.Probes[:0]},
			}
			b.TileElems = cfg.Elems - b.Offset
			if ts := cfg.TileSize(); b.TileElems > ts {
				b.TileElems = ts
			}
			kernel(&b)
			l.mu.Lock()
			l.pass.Add(&b.pass)
			l.mu.Unlock()
		}
	}
	RunWithHelpers(numBlocks, gate, worker)
	// Add merges Kernels counts from blocks (zero) and keeps ours.
	l.pass.Kernels = 1
	return &l.pass
}

// LaunchPass is the traffic record of one launch of cfg on dev before any
// block has run: one kernel, and the vectorization and occupancy factors the
// tile configuration implies (Figure 9). A caller that prices a launch from
// counted traffic instead of running its blocks adds that traffic to it.
func LaunchPass(dev *device.Spec, cfg Config) device.Pass {
	return device.Pass{
		Kernels:         1,
		VectorEff:       vectorEff(cfg.ItemsPerThread),
		OccupancyFactor: occupancyFactor(dev, cfg.Threads),
	}
}

// RunWithHelpers executes worker on the calling goroutine and on up to
// min(GOMAXPROCS-1, work-1) helper goroutines, each gated by gate (nil =
// ungated). Workers must pull work items from a shared source until it is
// exhausted. The two invariants every caller relies on live here: the
// calling goroutine always executes (progress needs no gate slot), and
// every successful TryAcquire is paired with exactly one Release.
func RunWithHelpers(work int, gate Gate, worker func()) {
	helpers := runtime.GOMAXPROCS(0) - 1
	if helpers > work-1 {
		helpers = work - 1
	}
	var wg sync.WaitGroup
	for h := 0; h < helpers; h++ {
		if gate != nil && !gate.TryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if gate != nil {
				defer gate.Release()
			}
			worker()
		}()
	}
	worker()
	wg.Wait()
}

// vectorEff models the effective load bandwidth of the tile configuration:
// with 4 items per thread a full tile is loaded with 128-bit vector
// instructions; with 2 the vector units are half empty; with 1 there is no
// vectorization benefit (Section 3.3, Figure 9).
func vectorEff(itemsPerThread int) float64 {
	switch {
	case itemsPerThread >= 4:
		return 1.0
	case itemsPerThread == 2:
		return 0.85
	default:
		return 0.70
	}
}

// occupancyFactor models the under-utilization of large thread blocks: each
// SM holds at most MaxThreadsPerSM threads, so large blocks mean few
// independent blocks per SM, which hurts kernels that synchronize heavily
// (Section 3.3: performance deteriorates past block size 256).
func occupancyFactor(dev *device.Spec, threads int) float64 {
	if dev.MaxThreadsPerSM == 0 || threads <= 0 {
		return 1
	}
	blocksPerSM := dev.MaxThreadsPerSM / threads
	switch {
	case blocksPerSM >= 8:
		return 1.0
	case blocksPerSM >= 4:
		return 1.05
	case blocksPerSM >= 2:
		return 1.25
	default:
		return 1.6
	}
}

// Validate checks a launch configuration.
func (c Config) Validate() error {
	if c.Threads <= 0 || c.Threads > 1024 {
		return fmt.Errorf("sim: thread block size %d out of range (1..1024)", c.Threads)
	}
	if c.ItemsPerThread <= 0 {
		return fmt.Errorf("sim: items per thread %d must be positive", c.ItemsPerThread)
	}
	if c.Elems < 0 {
		return fmt.Errorf("sim: negative element count %d", c.Elems)
	}
	return nil
}
