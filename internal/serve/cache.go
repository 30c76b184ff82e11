package serve

import (
	"container/list"
	"sync"
)

// lruCache is a mutex-guarded LRU map from query cache keys to results.
// Keys embed the model digest, query, and every chain option (including
// the seed), so a hit is exactly the value a fresh chain would
// recompute — the estimators are deterministic in (model, query, opts,
// seed) — and serving from cache is indistinguishable from serving from
// a fresh chain.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

// newLRUCache returns a cache holding up to capacity entries; a
// non-positive capacity disables caching (every Get misses, Add drops).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
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

// Add inserts or refreshes key, evicting the least recently used entry
// when over capacity.
func (c *lruCache) Add(key string, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
