package serve

import "testing"

func TestLRUCacheEvictsOldest(t *testing.T) {
	c := newLRUCache(2, 0)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before capacity exceeded")
	}
	// a was just used, so adding c evicts b.
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Errorf("a = %v, %v; want 1, true", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Errorf("c = %v, %v; want 3, true", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestLRUCacheRefreshOnAdd(t *testing.T) {
	c := newLRUCache(2, 0)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // refresh both value and recency
	c.Add("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Errorf("a = %v, %v; want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; refresh of a should have made b the eviction victim")
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := newLRUCache(0, 0)
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Error("zero-capacity cache returned a hit")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

// TestLRUCacheByteBound: past its byte bound the cache evicts least
// recently used entries until the sizes fit, a refresh re-counts an
// entry's size, an entry larger than the bound is not kept, and Bytes
// never reads above the bound.
func TestLRUCacheByteBound(t *testing.T) {
	c := newLRUCache(100, 10)
	check := func(step string, bytes int, keys ...string) {
		t.Helper()
		if got := c.Bytes(); got != bytes {
			t.Errorf("%s: Bytes = %d, want %d", step, got, bytes)
		}
		if c.Len() != len(keys) {
			t.Errorf("%s: Len = %d, want %d", step, c.Len(), len(keys))
		}
		for _, k := range keys {
			if _, ok := c.Get(k); !ok {
				t.Errorf("%s: %s evicted", step, k)
			}
		}
	}
	c.AddSized("a", 1, 4)
	c.AddSized("b", 2, 4)
	check("two entries", 8, "b", "a") // a is now the most recently used
	c.AddSized("c", 3, 4)
	check("over by one entry", 8, "a", "c")
	c.AddSized("d", 4, 5)
	check("a larger entry", 9, "c", "d")
	c.AddSized("c", 30, 7)
	check("a refresh that grows", 7, "c")
	c.AddSized("e", 5, 11)
	check("an entry past the bound", 0)
	if _, ok := c.Get("e"); ok {
		t.Error("an entry larger than the byte bound was kept")
	}
}
