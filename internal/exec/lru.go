package exec

import (
	"dufp/internal/metrics"
)

// lruCache is a bounded least-recently-used map of completed runs. The
// recency list is intrusive over a preallocated entry arena — indices
// instead of pointers, a free list instead of node allocation — so get,
// add and evict are allocation-free after construction and the settle
// path never feeds the garbage collector. It is not safe for concurrent
// use; the Executor serialises access under its mutex.
type lruCache struct {
	items   map[ID]int32
	entries []lruEntry
	head    int32 // most recently used, -1 when empty
	tail    int32 // least recently used, -1 when empty
	free    int32 // free-list head (linked through next), -1 when full
	used    int
}

type lruEntry struct {
	id         ID
	run        metrics.Run
	prev, next int32
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	c := &lruCache{
		items:   make(map[ID]int32, capacity),
		entries: make([]lruEntry, capacity),
		head:    -1,
		tail:    -1,
	}
	for i := range c.entries {
		c.entries[i].next = int32(i + 1)
	}
	c.entries[capacity-1].next = -1
	return c
}

func (c *lruCache) get(id ID) (metrics.Run, bool) {
	i, ok := c.items[id]
	if !ok {
		return metrics.Run{}, false
	}
	c.moveToFront(i)
	return c.entries[i].run, true
}

// add inserts or refreshes an entry and returns how many were evicted.
func (c *lruCache) add(id ID, run metrics.Run) int {
	if i, ok := c.items[id]; ok {
		c.entries[i].run = run
		c.moveToFront(i)
		return 0
	}
	evicted := 0
	i := c.free
	if i < 0 {
		// Arena full: recycle the least-recently-used entry in place.
		i = c.tail
		c.unlink(i)
		delete(c.items, c.entries[i].id)
		c.used--
		evicted = 1
	} else {
		c.free = c.entries[i].next
	}
	e := &c.entries[i]
	e.id, e.run = id, run
	c.pushFront(i)
	c.items[id] = i
	c.used++
	return evicted
}

func (c *lruCache) len() int { return c.used }

// unlink removes entry i from the recency list.
func (c *lruCache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront makes entry i the most recently used.
func (c *lruCache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *lruCache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
