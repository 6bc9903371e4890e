package serve

import (
	"container/heap"
	"sync/atomic"
)

// lru is a string-keyed map of opaque values with least-recently-used
// eviction at a fixed capacity: the service's plan, result and bind caches
// are one each. It has no lock of its own; the service guards all three
// with cacheMu, a read-write lock. get is safe under the read lock, beside
// other gets, because it records recency in the entry's atomic stamp
// rather than reordering a shared list; put and purge need the write lock.
//
// Eviction is exact LRU order: the entry with the oldest stamp goes. The
// entries sit in a min-heap by the stamp they were queued under, which a
// get leaves behind; an eviction that finds the heap's top behind its
// stamp requeues it under that stamp and looks again. Every entry's stamp
// is at or after its queued one, so a top that is not behind is the oldest.
type lru struct {
	cap   int
	clock atomic.Uint64 // the newest stamp handed out
	items map[string]*lruEntry
	order lruHeap
}

type lruEntry struct {
	key    string
	val    any
	stamp  atomic.Uint64 // the clock at the entry's last use
	queued uint64        // the stamp order holds the entry under; <= stamp
}

// lruHeap orders entries by queued stamp, oldest first (container/heap).
type lruHeap []*lruEntry

func (h lruHeap) Len() int           { return len(h) }
func (h lruHeap) Less(i, j int) bool { return h[i].queued < h[j].queued }
func (h lruHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *lruHeap) Push(x any)        { *h = append(*h, x.(*lruEntry)) }
func (h *lruHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{cap: capacity, items: make(map[string]*lruEntry)}
}

// get returns the cached value and marks it most recently used.
func (c *lru) get(key string) (any, bool) {
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.touch(e)
	return e.val, true
}

// touch marks e most recently used. An entry that already holds the newest
// stamp is left alone, so repeated hits on one key write nothing shared.
func (c *lru) touch(e *lruEntry) {
	if e.stamp.Load() != c.clock.Load() {
		e.stamp.Store(c.clock.Add(1))
	}
}

// put inserts or refreshes key, evicting the least recently used entry
// when over capacity.
func (c *lru) put(key string, val any) {
	if e, ok := c.items[key]; ok {
		e.val = val
		c.touch(e)
		return
	}
	e := &lruEntry{key: key, val: val}
	e.queued = c.clock.Add(1)
	e.stamp.Store(e.queued)
	c.items[key] = e
	heap.Push(&c.order, e)
	for len(c.items) > c.cap {
		oldest := c.order[0]
		if s := oldest.stamp.Load(); s != oldest.queued {
			oldest.queued = s
			heap.Fix(&c.order, 0)
			continue
		}
		heap.Pop(&c.order)
		delete(c.items, oldest.key)
	}
}

// purge drops every entry.
func (c *lru) purge() {
	clear(c.items)
	clear(c.order)
	c.order = c.order[:0]
}

// len returns the number of cached entries.
func (c *lru) len() int { return len(c.items) }
