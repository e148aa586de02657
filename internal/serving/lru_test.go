package serving

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCacheGetSet(t *testing.T) {
	c := NewCache[string](8, 0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Set("a", "1")
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Set("a", "2") // overwrite
	if v, _ := c.Get("a"); v != "2" {
		t.Fatalf("after overwrite Get(a) = %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	m := c.Metrics()
	if m.Hits != 2 || m.Misses != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache[int](3, 0) // small → single shard → exact LRU
	c.Set("a", 1)
	c.Set("b", 2)
	c.Set("c", 3)
	c.Get("a") // refresh a; b is now oldest
	c.Set("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want retained", k)
		}
	}
	if ev := c.Metrics().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCacheBoundHoldsUnderChurn(t *testing.T) {
	const capacity = 128
	c := NewCache[int](capacity, 0) // ≥ 4*shards → sharded
	for i := 0; i < 10*capacity; i++ {
		c.Set(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("cache grew to %d entries, bound %d", n, capacity)
	}
	if n := c.Len(); n < capacity/2 {
		t.Fatalf("cache holds only %d entries, suspiciously few for bound %d", n, capacity)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache[int](8, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Set("a", 1)
	now = now.Add(30 * time.Second)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry expired before TTL")
	}
	now = now.Add(45 * time.Second) // 75s after insertion; the Get above does not extend TTL
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived past TTL")
	}
	m := c.Metrics()
	if m.Expired != 1 {
		t.Fatalf("expired = %d, want 1", m.Expired)
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry still resident, Len = %d", c.Len())
	}
	// Set refreshes the clock.
	c.Set("a", 2)
	now = now.Add(30 * time.Second)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatalf("re-set entry: %d, %v", v, ok)
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache[int](64, 0)
	for i := 0; i < 50; i++ {
		c.Set(fmt.Sprintf("k%d", i), i)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after purge = %d", c.Len())
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("purged entry still readable")
	}
}

// TestCacheConcurrent hammers all operations from many goroutines; run
// under -race this is the data-race check for the sharded paths.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache[int](256, time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (g*31+i)%400)
				if i%3 == 0 {
					c.Set(k, i)
				} else {
					c.Get(k)
				}
				if i%100 == 0 {
					c.Len()
					c.Metrics()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 256 {
		t.Fatalf("bound violated under concurrency: %d", n)
	}
}

// The shards together hold exactly the capacity the cache reports:
// splitting it by rounding up per shard would let NewCache(65) hold 80.
func TestCacheHoldsAtMostCapacity(t *testing.T) {
	const keys = 100_000
	for _, capacity := range []int{64, 65, 100, 1000, 1024} {
		c := NewCache[int](capacity, 0)
		for i := 0; i < keys; i++ {
			c.Set(fmt.Sprintf("k%d", i), i)
		}
		m := c.Metrics()
		if m.Entries != capacity || m.Capacity != capacity {
			t.Errorf("NewCache(%d) after %d keys: entries = %d, capacity = %d", capacity, keys, m.Entries, m.Capacity)
		}
		if want := int64(keys - capacity); m.Evictions != want {
			t.Errorf("NewCache(%d): evictions = %d, want %d", capacity, m.Evictions, want)
		}
	}
}
