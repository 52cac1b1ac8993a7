package evalpool

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultCacheEntries is the capacity a Cache gets when none is
// configured.
const DefaultCacheEntries = 256

// Cache is a bounded, content-addressed LRU of once-filled values. The
// first Get of a key runs its fill; concurrent Gets of the same key
// block on that fill instead of duplicating it. Failed fills are cached
// too: refilling a broken program cannot fix it, and a tenant hammering
// a bad source must not buy CPU with it. Beyond capacity the least
// recently used entry is dropped together with everything its value
// holds.
//
// All state is guarded by mu except the entries' once-guarded fill.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*cacheEntry[V]
	lru     *list.List // front = most recent; values are K

	hits      uint64
	misses    uint64
	evictions uint64
}

// cacheEntry is one once-guarded slot.
type cacheEntry[V any] struct {
	once   sync.Once
	filled atomic.Bool // set after the fill publishes val/err
	val    V
	err    error
	elem   *list.Element // LRU position
}

// CacheStats is the wire form of a Cache's counters.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// NewCache returns a cache holding at most max entries (max <= 0
// selects DefaultCacheEntries).
func NewCache[K comparable, V any](max int) *Cache[K, V] {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache[K, V]{max: max, entries: make(map[K]*cacheEntry[V]), lru: list.New()}
}

// Get returns the value for key, running fill on first use. The second
// result reports a hit: an entry that existed when this call arrived (a
// call that blocked on another call's in-flight fill counts as a hit —
// the work was collapsed).
func (c *Cache[K, V]) Get(key K, fill func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry[V]{}
		c.entries[key] = e
		e.elem = c.lru.PushFront(key)
		c.misses++
		c.evictLocked()
	} else {
		c.hits++
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()

	hit := true
	e.once.Do(func() {
		hit = false
		e.val, e.err = fill()
		e.filled.Store(true)
	})
	return e.val, hit, e.err
}

// evictLocked drops least-recently-used entries beyond capacity. An
// evicted in-flight entry is safe: calls already holding it keep their
// reference and complete; later calls start a fresh entry.
func (c *Cache[K, V]) evictLocked() {
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		key := back.Value.(K)
		c.lru.Remove(back)
		delete(c.entries, key)
		c.evictions++
	}
}

// Range calls f on every entry whose fill has completed without error,
// in no particular order. It snapshots the entries first, so f may
// block or call back into the cache.
func (c *Cache[K, V]) Range(f func(K, V)) {
	type slot struct {
		key K
		ent *cacheEntry[V]
	}
	c.mu.Lock()
	slots := make([]slot, 0, len(c.entries))
	for k, e := range c.entries {
		slots = append(slots, slot{k, e})
	}
	c.mu.Unlock()
	for _, s := range slots {
		// An in-flight fill's val is not published yet and must not be
		// raced; filled is stored after val, so observing it true makes
		// val safe to read.
		if s.ent.filled.Load() && s.ent.err == nil {
			f(s.key, s.ent.val)
		}
	}
}

// Stats snapshots the cache counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Capacity:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
