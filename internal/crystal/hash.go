package crystal

import (
	"fmt"
	"math"
	"sync/atomic"

	"crystal/internal/device"
	"crystal/internal/sim"
)

// EmptyKey is the slot sentinel for unoccupied hash-table slots. SSB and the
// microbenchmark keys are non-negative, so the minimum int32 is safe.
const EmptyKey = math.MinInt32

// HashTable is the open-addressing, linear-probing hash table the paper's
// join operators use on both devices (Section 4.3): an array of slots, each
// a 4-byte key and a 4-byte payload, no pointers. The modelled build phase
// inserts concurrently with compare-and-swap, mirroring the GPU build
// kernel; a host build with one writer uses Put.
type HashTable struct {
	keys []int32
	vals []int32
	mask uint32
	// hasPayload records whether the table stores payloads; key-only tables
	// (existence filters) occupy half the bytes.
	hasPayload bool
}

// multiplicative is the slot multiplier (Knuth's 2^32 / golden ratio).
const multiplicative = 2654435761

// HashCapacity returns the slot count of a table for n keys at the given
// fill rate (the paper uses 50%; an out-of-range fill means 50%): the
// smallest power of two, at least 2, whose fill-fraction holds n. Every
// table constructor, and every model that prices a table before it is
// built, sizes through it.
func HashCapacity(n int, fill float64) int {
	if fill <= 0 || fill > 1 {
		fill = 0.5
	}
	capacity := 1
	for float64(capacity)*fill < float64(n) || capacity < 2 {
		capacity <<= 1
	}
	return capacity
}

// HashTableBytes returns the footprint of a table of the given capacity:
// 8 bytes a slot with payloads, 4 without.
func HashTableBytes(capacity int, hasPayload bool) int64 {
	if hasPayload {
		return int64(capacity) * 8
	}
	return int64(capacity) * 4
}

// NewHashTable creates a table with capacity for n keys at the given fill
// rate, hashing keys multiplicatively.
func NewHashTable(n int, fill float64, hasPayload bool) *HashTable {
	return newHashTable(HashCapacity(n, fill), hasPayload)
}

// NewHashTableBytes creates a key+payload table whose footprint is exactly
// the given number of bytes (used by the Figure 13 sweep, which controls
// hash-table size directly).
func NewHashTableBytes(bytes int64) *HashTable {
	capacity := 1
	for int64(capacity)*8 < bytes {
		capacity <<= 1
	}
	return newHashTable(capacity, true)
}

func newHashTable(capacity int, hasPayload bool) *HashTable {
	ht := &HashTable{
		keys:       make([]int32, capacity),
		mask:       uint32(capacity - 1),
		hasPayload: hasPayload,
	}
	if hasPayload {
		ht.vals = make([]int32, capacity)
	}
	for i := range ht.keys {
		ht.keys[i] = EmptyKey
	}
	return ht
}

// Capacity returns the number of slots.
func (h *HashTable) Capacity() int { return len(h.keys) }

// Bytes returns the table's memory footprint, which determines the cache
// level it lives in and therefore the probe cost (Section 4.3 model).
func (h *HashTable) Bytes() int64 { return HashTableBytes(len(h.keys), h.hasPayload) }

func (h *HashTable) slot(key int32) uint32 {
	return (uint32(key) * multiplicative) & h.mask
}

// Insert adds key with payload val. It is safe for concurrent use (the GPU
// build kernel inserts from thousands of threads via CAS). Duplicate keys
// occupy separate slots; Get returns the first in probe order.
func (h *HashTable) Insert(key, val int32) {
	if key == EmptyKey {
		panic("crystal: cannot insert the empty-key sentinel")
	}
	i := h.slot(key)
	for {
		if atomic.LoadInt32(&h.keys[i]) == EmptyKey &&
			atomic.CompareAndSwapInt32(&h.keys[i], EmptyKey, key) {
			if h.hasPayload {
				atomic.StoreInt32(&h.vals[i], val)
			}
			return
		}
		i = (i + 1) & h.mask
	}
}

// Put is Insert for a table with one writer that nothing reads yet: plain
// loads and stores, the same slot sequence, so a table built by Put answers
// every Get exactly as one built by sequential Inserts. Whoever publishes
// the finished table to readers provides the synchronisation.
func (h *HashTable) Put(key, val int32) {
	if key == EmptyKey {
		panic("crystal: cannot insert the empty-key sentinel")
	}
	i := h.slot(key)
	for h.keys[i] != EmptyKey {
		i = (i + 1) & h.mask
	}
	h.keys[i] = key
	if h.hasPayload {
		h.vals[i] = val
	}
}

// Get probes for key and returns its payload (zero for key-only tables).
// EmptyKey is never held (Put and Insert refuse it), so it always misses:
// probing for it would match the first empty slot.
func (h *HashTable) Get(key int32) (int32, bool) {
	if key == EmptyKey {
		return 0, false
	}
	i := h.slot(key)
	for {
		k := atomic.LoadInt32(&h.keys[i])
		if k == key {
			if h.hasPayload {
				return atomic.LoadInt32(&h.vals[i]), true
			}
			return 0, true
		}
		if k == EmptyKey {
			return 0, false
		}
		i = (i + 1) & h.mask
	}
}

// BuildKernel inserts this block's tile of (key, val) pairs into the table;
// it is the body of the GPU build-phase kernel. Build writes go to memory
// (Section 4.3 discussion: build writes are less affected by caches), so
// each insert is metered as a random scattered write plus the streaming
// read of the build columns.
func BuildKernel(b *sim.Block, ht *HashTable, keys, vals []int32) {
	n := b.TileElems
	kk := make([]int32, n)
	vv := make([]int32, n)
	nk := BlockLoad(b, keys, kk)
	if vals != nil {
		BlockLoad(b, vals, vv)
	}
	for i := 0; i < nk; i++ {
		v := int32(0)
		if vals != nil {
			v = vv[i]
		}
		ht.Insert(kk[i], v)
	}
	b.Pass().AddProbes(device.ProbeSet{Count: int64(nk), StructBytes: ht.Bytes(), Writes: true})
}

// AggTable is the one-slot face of MultiAggTable: group key -> running sum.
// The query kernels hold a MultiAggTable directly (a single SUM is a list of
// one SlotAdd); this face is what the benchmark harness constructs and walks
// to time a table of the footprint — 8 + 8*1 = 16 bytes a modelled slot —
// that a single-SUM statement prices.
type AggTable struct {
	t *MultiAggTable
}

// NewAggTable creates an aggregation table modelled for up to n distinct
// groups.
func NewAggTable(n int) *AggTable {
	return &AggTable{t: NewMultiAggTable(n, []SlotOp{SlotAdd})}
}

const aggEmpty = math.MinInt64

// Bytes returns the modelled table footprint (16 bytes per modelled slot).
func (t *AggTable) Bytes() int64 { return t.t.Bytes() }

// Each calls fn for every (key, sum) pair in unspecified order; like
// MultiAggTable.Each it reads a finished table.
func (t *AggTable) Each(fn func(key, sum int64)) {
	t.t.Each(func(key int64, acc []int64) { fn(key, acc[0]) })
}

func (h *HashTable) String() string {
	return fmt.Sprintf("hashtable{slots=%d, bytes=%d, payload=%v}", len(h.keys), h.Bytes(), h.hasPayload)
}
