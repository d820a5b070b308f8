// Package lru is the engine's one bounded cache: a least-recently-used
// map held to a size budget, with single-flight fill.
package lru

import "sync"

// Cache maps K to V, counting each entry at a size its size function
// gives (1 without one). Storing past the budget evicts least recently
// used entries until the rest fit. Entries live in one slice of slots
// linked into a recency list by index, and evicted slots are reused, so a
// store allocates nothing once the slice has grown. A pending fill holds
// a slot outside the list: it counts against no budget and cannot be
// evicted before it is stored. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu                      sync.Mutex
	filled                  sync.Cond // broadcast when a fill ends; L is &mu
	budget                  int
	size                    func(K, V) int
	items                   map[K]int32  // stored and pending entries' slots
	slots                   []slot[K, V] // slots[0] is the list's sentinel
	free                    int32        // first free slot, 0 = none
	fills                   uint64       // fills started, naming each one
	count, used             int          // stored entries and their summed sizes
	hits, misses, evictions int
}

// slot is one entry, linked into the recency list unless its fill (the
// fill'th one started) is pending; a free slot's next links the free list.
type slot[K comparable, V any] struct {
	key        K
	val        V
	size       int
	prev, next int32
	pending    bool
	fill       uint64
}

// New returns an empty cache holding entries up to budget, counting an
// entry at size(key, value), or at 1 when size is nil. budget <= 0 means
// unbounded; an entry larger than the whole budget is never stored.
func New[K comparable, V any](budget int, size func(K, V) int) *Cache[K, V] {
	c := &Cache[K, V]{budget: max(budget, 0), size: size}
	c.filled.L = &c.mu
	return c
}

// Stats is a snapshot of a cache's counters and occupancy.
type Stats struct {
	// Hits and Misses count lookups. A caller that finds another's fill
	// pending is a hit, or a miss if it finds nothing stored when the
	// fill ends and computes for itself.
	Hits, Misses int
	// Evictions counts entries dropped to stay within the budget.
	Evictions int
	// Len is the number of stored entries and Size their summed sizes;
	// Budget is the size bound (0 = unbounded).
	Len, Size, Budget int
}

// Stats returns the cache's counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{c.hits, c.misses, c.evictions, c.count, c.used, c.budget}
}

// Get returns the value stored under key and marks it most recently used.
// A key whose fill is pending is a miss.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.items[key]
	if !ok || c.slots[i].pending {
		c.misses++
		return v, false
	}
	c.hits++
	c.touch(i)
	return c.slots[i].val, true
}

// Put stores v under key as the most recently used entry, replacing any
// value stored there.
func (c *Cache[K, V]) Put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(key, v)
}

// GetOrCompute returns the value stored under key. On a miss it stores
// and returns what fn returns; concurrent callers for the key wait for
// that one call instead of making their own. If fn fails, nothing is
// stored and each waiter calls fn itself.
func (c *Cache[K, V]) GetOrCompute(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	i, ok := c.items[key]
	if !ok {
		c.misses++
		i = c.alloc(key)
		c.fills++
		id := c.fills
		c.slots[i].pending, c.slots[i].fill = true, id
		c.mu.Unlock()
		return c.fill(key, i, id, fn)
	}
	c.hits++
	if id := c.slots[i].fill; c.slots[i].pending {
		for c.slots[i].pending && c.slots[i].fill == id {
			c.filled.Wait()
		}
		if c.slots[i].fill != id {
			// The fill stored nothing (or its entry is gone already).
			c.hits--
			c.misses++
			c.mu.Unlock()
			v, err := fn()
			if err == nil {
				c.Put(key, v)
			}
			return v, err
		}
	}
	c.touch(i)
	v := c.slots[i].val
	c.mu.Unlock()
	return v, nil
}

// fill runs fn for key's pending slot i, the id'th fill, stores its value
// on success, and then wakes the waiters, even if fn panics.
func (c *Cache[K, V]) fill(key K, i int32, id uint64, fn func() (V, error)) (v V, err error) {
	stored := false
	defer func() {
		c.mu.Lock()
		if stored {
			c.store(key, v)
		} else if s := &c.slots[i]; s.pending && s.fill == id {
			c.release(i)
		}
		c.mu.Unlock()
		c.filled.Broadcast()
	}()
	v, err = fn()
	stored = err == nil
	return v, err
}

// store puts v under key as the most recently used entry and evicts down
// to the budget. c.mu must be held.
func (c *Cache[K, V]) store(key K, v V) {
	size := 1
	if c.size != nil {
		size = c.size(key, v)
	}
	i, ok := c.items[key]
	switch {
	case !ok:
		i = c.alloc(key)
	case !c.slots[i].pending:
		c.unlist(i)
	}
	if c.budget > 0 && size > c.budget {
		c.release(i)
		return
	}
	s := &c.slots[i]
	s.val, s.size, s.pending = v, size, false
	c.link(i)
	c.count++
	c.used += size
	for c.budget > 0 && c.used > c.budget {
		oldest := c.slots[0].prev
		c.unlist(oldest)
		c.release(oldest)
		c.evictions++
	}
}

// alloc takes a free slot for key and maps key to it. The slots and the
// map are made on first use, so a cache never used costs one allocation.
func (c *Cache[K, V]) alloc(key K) int32 {
	if c.slots == nil {
		c.slots, c.items = make([]slot[K, V], 1), map[K]int32{}
	}
	i := c.free
	if i != 0 {
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot[K, V]{})
	}
	c.slots[i].key = key
	c.items[key] = i
	return i
}

// release unmaps slot i's key and clears and frees the slot, so it keeps
// nothing alive.
func (c *Cache[K, V]) release(i int32) {
	delete(c.items, c.slots[i].key)
	c.slots[i] = slot[K, V]{next: c.free}
	c.free = i
}

// touch makes the stored entry in slot i the most recently used.
func (c *Cache[K, V]) touch(i int32) {
	if c.slots[0].next != i {
		c.unlink(i)
		c.link(i)
	}
}

// link makes slot i the most recently used.
func (c *Cache[K, V]) link(i int32) {
	head := &c.slots[0]
	c.slots[i].prev, c.slots[i].next = 0, head.next
	c.slots[head.next].prev = i
	head.next = i
}

func (c *Cache[K, V]) unlink(i int32) {
	s := &c.slots[i]
	c.slots[s.prev].next = s.next
	c.slots[s.next].prev = s.prev
}

// unlist takes the stored entry in slot i out of the list and the counts.
func (c *Cache[K, V]) unlist(i int32) {
	c.unlink(i)
	c.count--
	c.used -= c.slots[i].size
}
