package serve

import (
	"container/list"
	"strconv"
	"sync"
)

// deviceCache is the simulated GPU's device-memory column cache: a
// capacity-bounded LRU of packed fact columns pinned in device memory, so
// repeated coprocessor requests skip their PCIe transfer entirely. Capacity
// is the device's memory size (device.Spec.MemoryBytes) unless overridden;
// entries are keyed by dataset generation plus column name, so a dataset
// swap can never serve stale residency (SetDataset additionally purges, as
// a real deployment would free device memory).
//
// Acquire implements queries.Residency: a hit means the column is already
// resident (the coprocessor ships nothing); a miss admits the column,
// because the transfer the engine then charges is exactly what populates
// device memory. Columns larger than the whole capacity are never admitted.
type deviceCache struct {
	mu    sync.Mutex
	cap   int64
	used  int64
	order *list.List // front = most recently used; values are *deviceEntry
	items map[string]*list.Element
	// gen is the dataset generation admissions are accepted for; it only
	// ever advances (concurrent SetDataset purges may apply out of order).
	// A request that snapshotted an older generation while a SetDataset
	// raced past it can still miss (and pay its transfer) but is refused
	// admission — its column belongs to a dataset no future request will
	// ever look up, so admitting it would pin dead bytes against the
	// capacity.
	gen uint64

	hits      int64
	misses    int64
	evictions int64
}

type deviceEntry struct {
	key   string
	bytes int64
}

func newDeviceCache(capacity int64, gen uint64) *deviceCache {
	return &deviceCache{
		cap:   capacity,
		gen:   gen,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// acquire looks up the column under the request's dataset generation,
// admitting it (and evicting least-recently-used columns to make room) on
// a miss. hit reports the column was already resident; admitted reports
// whether a missing column was accepted — misses from a stale generation
// or larger than the whole capacity are refused, and the engine falls back
// to an ordinary cold transfer.
func (c *deviceCache) acquire(gen uint64, col string, bytes int64) (hit, admitted bool) {
	key := cacheKey(strconv.FormatUint(gen, 10), col)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return true, true
	}
	c.misses++
	if gen != c.gen {
		return false, false // in-flight request from a purged generation
	}
	if bytes > c.cap {
		return false, false // larger than the whole device: never resident
	}
	for c.used+bytes > c.cap {
		oldest := c.order.Back()
		e := oldest.Value.(*deviceEntry)
		c.order.Remove(oldest)
		delete(c.items, e.key)
		c.used -= e.bytes
		c.evictions++
	}
	c.items[key] = c.order.PushFront(&deviceEntry{key: key, bytes: bytes})
	c.used += bytes
	return false, true
}

// purge frees every pinned column and advances to the given generation
// (dataset swap): admissions from older generations are refused from here
// on. The generation is monotone — a purge for an older generation that
// lost the race to a newer one is a no-op, so the cache can never regress
// to refusing current-generation admissions.
func (c *deviceCache) purge(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen < c.gen {
		return
	}
	c.order.Init()
	clear(c.items)
	c.used = 0
	c.gen = gen
}

// deviceCacheStats is a point-in-time snapshot of the cache counters.
type deviceCacheStats struct {
	capacity, used          int64
	cols                    int
	hits, misses, evictions int64
}

func (c *deviceCache) snapshot() deviceCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return deviceCacheStats{
		capacity:  c.cap,
		used:      c.used,
		cols:      len(c.items),
		hits:      c.hits,
		misses:    c.misses,
		evictions: c.evictions,
	}
}

// residency binds a device cache to one dataset generation: the
// queries.Residency the coprocessor engine and the fleet devices consult. A
// fleet device's is also scoped to one shard map (scope, "GPUsxPartitions"):
// the spilled byte range of a column depends on it, so a column pinned for
// one shape must never satisfy another shape's lookup — a hit would elide
// shipping bytes that were never resident.
type residency struct {
	cache *deviceCache
	gen   uint64
	scope string
}

// Acquire implements queries.Residency.
func (r residency) Acquire(col string, bytes int64) (hit, admitted bool) {
	if r.scope != "" {
		col = cacheKey(r.scope, col)
	}
	return r.cache.acquire(r.gen, col, bytes)
}
