// Package cpu implements the paper's CPU-side operators: multi-threaded,
// vector-at-a-time selection scans (branching, predicated and SIMD
// variants), projections (naive and optimized with non-temporal writes +
// SIMD), linear-probing hash joins (scalar, vertically-vectorized SIMD and
// group-prefetching variants), and the radix partitioning / LSB radix sort
// of Polychroniou & Ross.
//
// Go has no SIMD intrinsics, so the SIMD variants execute the same
// lane-batched algorithms scalar-wise while the timing model charges them
// their calibrated per-element instruction costs (DESIGN.md substitution
// table). All operators run functionally on real data across goroutines and
// meter their memory traffic into device.Pass records priced by the
// i7-6900 model.
package cpu

import (
	"runtime"
	"sync"

	"crystal/internal/device"
)

// VectorSize is the number of entries a thread processes at a time: small
// enough to fit in L1 (Section 3.2 "a vector is about 1000 entries").
const VectorSize = 1024

// Per-element instruction costs in scalar-equivalent core cycles, calibrated
// so the CPU variants land where Figures 10, 12 and 13 put them relative to
// the bandwidth models (see DESIGN.md). SIMD costs are per *element*, i.e.
// already divided by the 8 AVX2 lanes.
const (
	cyclesSelectIf    = 1.5 // branchy compare + conditional store
	cyclesSelectPred  = 2.0 // predicated compare + unconditional store + cursor add
	cyclesSelectSIMD  = 0.4 // vectorized compare + selective store
	cyclesProjectQ1   = 3.0 // scalar multiply-add per element
	cyclesProjQ1SIMD  = 0.5
	cyclesSigmoid     = 27.0 // scalar exp + divide
	cyclesSigmoidSIMD = 3.4  // vectorized polynomial exp
	cyclesProbeScalar = 3.0
	cyclesProbeSIMD   = 5.0 // 2 gathers + de-interleave per 8 keys (Section 4.3)
	cyclesProbePrefet = 5.0 // scalar probe + prefetch instruction overhead
	cyclesRadixHist   = 2.0
	cyclesRadixShuf   = 2.0
)

// prefetchStall is the residual stall factor of group-prefetched probes:
// prefetching hides most, not all, of the DRAM latency (Section 4.3 shows
// "limited improvement ... when data size is larger than the L3 cache").
const prefetchStall = 1.08

// parallelFor splits [0, n) into contiguous per-thread ranges and runs fn
// on each concurrently, mirroring the paper's partition-per-core execution.
func parallelFor(n int, fn func(worker, lo, hi int)) {
	parallelForN(runtime.GOMAXPROCS(0), n, fn)
}

// parallelForN is parallelFor on at most `workers` threads: worker w runs
// the w-th range of ceil(n/workers) elements, and a worker whose range is
// empty does not run.
func parallelForN(workers, n int, fn func(worker, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// mispredicts returns the expected branch mispredictions for n branchy
// iterations at selectivity sigma: the predictor fails on roughly
// 2*sigma*(1-sigma) of them (Section 4.2).
func mispredicts(n int64, sigma float64) int64 {
	return int64(2 * sigma * (1 - sigma) * float64(n))
}

var _ = device.Pass{} // anchor the import for doc tooling
