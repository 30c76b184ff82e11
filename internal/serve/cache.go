package serve

import (
	"container/list"
	"sync"
)

// lruCache is a mutex-guarded LRU map from string keys to values. The
// server keeps two: query results and burned-in chain starts. A result
// key embeds the model digest, query, and every chain option (including
// the seed), so a hit is exactly the value a fresh chain would
// recompute — the estimators are deterministic in (model, query, opts,
// seed) — and serving from cache is indistinguishable from serving from
// a fresh chain. A start key embeds what burn-in reads (see
// batchKey.startKey), so a chain cloned from a kept start is the chain a
// fresh burn-in would leave.
type lruCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int // bound on the entries' summed sizes; 0 for none
	bytes    int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type lruEntry struct {
	key  string
	val  any
	size int
}

// newLRUCache returns a cache holding up to capacity entries; a
// non-positive capacity disables caching (every Get misses, Add drops).
// A positive maxBytes also bounds the summed sizes of the entries (see
// AddSized).
func newLRUCache(capacity, maxBytes int) *lruCache {
	return &lruCache{
		cap:      capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *lruCache) Get(key string) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Add inserts or refreshes key as an entry of size 0.
func (c *lruCache) Add(key string, val any) { c.AddSized(key, val, 0) }

// AddSized inserts or refreshes key as an entry of size bytes, then
// evicts least recently used entries until the cache is within both of
// its bounds. An entry larger than the byte bound is therefore not kept.
func (c *lruCache) AddSized(key string, val any, size int) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.ll.Len() > c.cap || c.maxBytes > 0 && c.bytes > c.maxBytes {
		oldest := c.ll.Remove(c.ll.Back()).(*lruEntry)
		delete(c.items, oldest.key)
		c.bytes -= oldest.size
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the summed sizes of the cached entries.
func (c *lruCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
