package exec

import (
	"dufp/internal/metrics"
)

// lruCache is a bounded least-recently-used map of completed runs. The
// recency list is intrusive over an entry arena — indices instead of
// pointers, no per-node allocation — so get, add and evict allocate
// nothing but arena blocks. The arena starts empty and grows a block at
// a time as runs arrive, up to the bound; entries never move, so an
// index stays valid, and once the arena is full add recycles the
// least-recently-used entry in place. It is not safe for concurrent
// use; the Executor serialises access under its mutex.
type lruCache struct {
	items    map[ID]int32
	blocks   [][]lruEntry // entry i is blocks[i/lruBlock][i%lruBlock]
	capacity int
	head     int32 // most recently used, -1 when empty
	tail     int32 // least recently used, -1 when empty
	used     int   // entries 0..used-1 are live
}

type lruEntry struct {
	id         ID
	run        metrics.Run
	prev, next int32
}

// lruBlock is how many entries one arena block holds: a campaign pays
// for the runs it keeps, rounded up to a block, not for the bound.
const lruBlock = 256

func newLRU(capacity int) *lruCache {
	return &lruCache{
		items:    make(map[ID]int32),
		capacity: max(capacity, 1),
		head:     -1,
		tail:     -1,
	}
}

// at returns entry i of the arena.
func (c *lruCache) at(i int32) *lruEntry {
	return &c.blocks[i/lruBlock][i%lruBlock]
}

func (c *lruCache) get(id ID) (metrics.Run, bool) {
	i, ok := c.items[id]
	if !ok {
		return metrics.Run{}, false
	}
	c.moveToFront(i)
	return c.at(i).run, true
}

// add inserts or refreshes an entry and returns how many were evicted.
func (c *lruCache) add(id ID, run metrics.Run) int {
	if i, ok := c.items[id]; ok {
		c.at(i).run = run
		c.moveToFront(i)
		return 0
	}
	evicted := 0
	var i int32
	if c.used == c.capacity {
		// Arena full: recycle the least-recently-used entry in place.
		i = c.tail
		c.unlink(i)
		delete(c.items, c.at(i).id)
		evicted = 1
	} else {
		i = int32(c.used)
		if c.used%lruBlock == 0 {
			// The last block stops at the bound.
			c.blocks = append(c.blocks, make([]lruEntry, min(lruBlock, c.capacity-c.used)))
		}
		c.used++
	}
	e := c.at(i)
	e.id, e.run = id, run
	c.pushFront(i)
	c.items[id] = i
	return evicted
}

func (c *lruCache) len() int { return c.used }

// unlink removes entry i from the recency list.
func (c *lruCache) unlink(i int32) {
	e := c.at(i)
	if e.prev >= 0 {
		c.at(e.prev).next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.at(e.next).prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront makes entry i the most recently used.
func (c *lruCache) pushFront(i int32) {
	e := c.at(i)
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.at(c.head).prev = i
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
