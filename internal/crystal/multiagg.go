package crystal

import (
	"sync"
	"sync/atomic"
)

// SlotOp is the merge operator of one accumulator slot in a MultiAggTable.
// SUM and COUNT slots add; MIN/MAX slots converge with a CAS loop, which is
// how a real GPU kernel implements atomicMin/atomicMax on 64-bit values.
type SlotOp int

const (
	SlotAdd SlotOp = iota
	SlotMin
	SlotMax
)

// Identity returns the slot's merge identity (0 for add, the extreme
// sentinels for min/max).
func (op SlotOp) Identity() int64 {
	switch op {
	case SlotMin:
		return int64(^uint64(0) >> 1) // math.MaxInt64
	case SlotMax:
		return -int64(^uint64(0)>>1) - 1 // math.MinInt64
	default:
		return 0
	}
}

// Merge combines an accumulated value with a delta under the operator.
func (op SlotOp) Merge(acc, v int64) int64 {
	switch op {
	case SlotMin:
		if v < acc {
			return v
		}
		return acc
	case SlotMax:
		if v > acc {
			return v
		}
		return acc
	default:
		return acc + v
	}
}

// MultiAggTable is the global aggregation hash table GPU kernels update at
// the end of a pipelined query (Section 5.3): each group key owns a fixed
// vector of 8-byte accumulator slots (one per aggregate slot of the
// statement — SUM and COUNT take one, AVG takes two), updated atomically per
// slot so concurrent blocks accumulate into the same group. AggTable is its
// one-slot face.
//
// The table has two sizes and they must not be confused. The modelled
// footprint is a number: the open-addressing capacity the group estimate asks
// for at 50% fill, fixed at construction. Bytes() reports it (and
// MultiAggTableBytes computes it without a table), a GPU pricing hands it to
// device.ProbeSet.StructBytes, and it decides which cache level prices every
// probe — so it must not follow the slices, or simulated seconds would move
// with the data. The physical
// footprint follows occupancy: keys/vals start at min(modelled, 256) slots
// and double whenever a new group would take the table past half full, so
// building, walking and collecting a table costs the host what the result
// holds, not what the estimate feared — and a statement with more groups than
// its estimate grows the table instead of spinning on a full one.
//
// Updates run under the read half of mu (atomics order them against each
// other); a rehash takes the write half. Update takes the read half once
// per call.
type MultiAggTable struct {
	ops   []SlotOp
	slots int
	bytes int64 // the modelled footprint, fixed at construction

	mu   sync.RWMutex
	keys []int64
	vals []int64 // len(keys) * slots, flattened
	mask uint64
	// n counts occupied slots plus insertions in flight: a slot is reserved
	// here before its key is published, which is what keeps the table at most
	// half full (so every probe chain ends) however many blocks insert at once.
	n int64
}

// aggInitialSlots is the physical capacity a table starts from unless its
// modelled capacity is smaller: SSB results are a few hundred groups.
const aggInitialSlots = 256

// NewMultiAggTable creates a table modelled for up to n distinct groups with
// the given accumulator slot operators (50% fill, capacity a power of two).
func NewMultiAggTable(n int, ops []SlotOp) *MultiAggTable {
	t := &MultiAggTable{ops: append([]SlotOp(nil), ops...), slots: len(ops), bytes: MultiAggTableBytes(n, len(ops))}
	t.alloc(min(modelledSlots(n), aggInitialSlots))
	return t
}

// MultiAggTableBytes is the modelled footprint of a table for up to n
// distinct groups of the given slot count: an 8-byte key plus 8 bytes per
// slot for every slot of the capacity the estimate asks for. It is what a
// table's probes are priced against, whether or not the table is built.
func MultiAggTableBytes(n, slots int) int64 {
	return int64(modelledSlots(n)) * int64(8+8*slots)
}

// modelledSlots is the capacity an estimate of n groups asks for: a power of
// two, at least 2, at most half full.
func modelledSlots(n int) int {
	capacity := 2
	for float64(capacity)*0.5 < float64(n) {
		capacity <<= 1
	}
	return capacity
}

// alloc installs empty arrays of the given power-of-two capacity.
func (t *MultiAggTable) alloc(capacity int) {
	t.keys = make([]int64, capacity)
	t.vals = make([]int64, capacity*t.slots)
	t.mask = uint64(capacity - 1)
	for i := range t.keys {
		t.keys[i] = aggEmpty
	}
	for s, op := range t.ops {
		if id := op.Identity(); id != 0 {
			for i := s; i < len(t.vals); i += t.slots {
				t.vals[i] = id
			}
		}
	}
}

// Slots returns the number of accumulator slots per group.
func (t *MultiAggTable) Slots() int { return t.slots }

// Bytes returns the modelled table footprint (MultiAggTableBytes of the
// estimate the table was created for).
func (t *MultiAggTable) Bytes() int64 { return t.bytes }

// Groups returns the number of distinct groups accumulated.
func (t *MultiAggTable) Groups() int { return int(atomic.LoadInt64(&t.n)) }

// home is the slot a key's probe chain starts from in the current arrays.
func (t *MultiAggTable) home(key int64) uint64 {
	return (uint64(key) * 0x9E3779B97F4A7C15) & t.mask
}

// locate returns the index into vals of key's accumulator vector, inserting
// the key if it is new. The caller holds the read half of mu and still holds
// it on return, but locate lets go of it to grow a table that has no room for
// a new key — so an index from an earlier call is stale after this one.
func (t *MultiAggTable) locate(key int64) int {
	if key == aggEmpty {
		panic("crystal: reserved aggregation key")
	}
	for {
		h := t.home(key)
		for {
			k := atomic.LoadInt64(&t.keys[h])
			if k == key {
				return int(h) * t.slots
			}
			if k != aggEmpty {
				h = (h + 1) & t.mask
				continue
			}
			if atomic.AddInt64(&t.n, 1) > int64(len(t.keys)/2) {
				atomic.AddInt64(&t.n, -1)
				break // no room: grow, then probe the new arrays
			}
			if atomic.CompareAndSwapInt64(&t.keys[h], aggEmpty, key) {
				return int(h) * t.slots
			}
			atomic.AddInt64(&t.n, -1) // another block took the slot: look at it again
		}
		t.mu.RUnlock()
		t.grow()
		t.mu.RLock()
	}
}

// grow doubles the physical capacity and rehashes, unless another block
// already made room while this one waited for the write lock.
func (t *MultiAggTable) grow() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < int64(len(t.keys)/2) {
		return
	}
	keys, vals := t.keys, t.vals
	t.alloc(2 * len(keys))
	for i, k := range keys {
		if k == aggEmpty {
			continue
		}
		h := t.home(k)
		for t.keys[h] != aggEmpty {
			h = (h + 1) & t.mask
		}
		t.keys[h] = k
		copy(t.vals[int(h)*t.slots:], vals[i*t.slots:(i+1)*t.slots])
	}
}

func (t *MultiAggTable) slotMerge(idx int, op SlotOp, v int64) {
	addr := &t.vals[idx]
	if op == SlotAdd {
		atomic.AddInt64(addr, v)
		return
	}
	for {
		cur := atomic.LoadInt64(addr)
		next := op.Merge(cur, v)
		if next == cur || atomic.CompareAndSwapInt64(addr, cur, next) {
			return
		}
	}
}

// Update merges one row's slot deltas into the accumulators for group key.
// locate may replace vals, so the index is taken before vals is read.
func (t *MultiAggTable) Update(key int64, deltas []int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	base := t.locate(key)
	for s, op := range t.ops {
		t.slotMerge(base+s, op, deltas[s])
	}
}

// Each calls fn for every (key, accumulator vector) pair in unspecified
// order, walking the physical capacity — a small multiple of the groups held
// — rather than the estimate. It is for reading a finished table: it must not
// run while blocks are still updating. The slice passed to fn aliases the
// table; callers copy if needed.
func (t *MultiAggTable) Each(fn func(key int64, acc []int64)) {
	for i, k := range t.keys {
		if k != aggEmpty {
			fn(k, t.vals[i*t.slots:(i+1)*t.slots])
		}
	}
}
