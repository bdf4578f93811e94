package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicAddGet(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d,%v", v, ok)
	}
	if c.Len() != 2 || c.Cap() != 2 {
		t.Fatalf("len %d cap %d", c.Len(), c.Cap())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a")    // a is now MRU
	c.Add("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a wrongly evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
}

func TestPeekCountsNothing(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d,%v", v, ok)
	}
	if _, ok := c.Peek("z"); ok {
		t.Fatal("Peek(z) hit")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek counted: %+v", st)
	}
	c.Add("c", 3) // a is still LRU: Peek did not refresh it
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek refreshed a's recency")
	}
}

func TestAddRefreshesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // refresh value + recency, no eviction
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	c.Add("c", 3) // evicts b, not a
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("a = %d,%v", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
}

func TestRemove(t *testing.T) {
	c := New[string, int](4)
	c.Add("a", 1)
	if !c.Remove("a") {
		t.Fatal("remove miss")
	}
	if c.Remove("a") {
		t.Fatal("double remove hit")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("removed key hit")
	}
}

func TestZeroCapacityDisabled(t *testing.T) {
	c := New[string, int](0)
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored a value")
	}
	if c.Len() != 0 || c.Cap() != 0 {
		t.Fatalf("len %d cap %d", c.Len(), c.Cap())
	}
	neg := New[string, int](-5)
	neg.Add("a", 1)
	if neg.Cap() != 0 || neg.Len() != 0 {
		t.Fatal("negative capacity not clamped to disabled")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%48)
				c.Add(k, i)
				c.Get(k)
				if i%17 == 0 {
					c.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("len %d exceeds capacity", c.Len())
	}
}

// TestSizedEvictsOnByteBudget is the census-blob accounting regression:
// entries carrying large attached payloads must be bounded by the byte
// budget, not just the entry count, and the resident total must never
// exceed the configured cap.
func TestSizedEvictsOnByteBudget(t *testing.T) {
	type blob struct{ bytes int }
	c := NewSized[string, blob](100, 1000, func(b blob) int { return b.bytes })
	for i := 0; i < 10; i++ {
		c.Add(fmt.Sprintf("k%d", i), blob{bytes: 300})
		if got := c.Bytes(); got > 1000 {
			t.Fatalf("after add %d: resident %d bytes exceeds 1000-byte cap", i, got)
		}
	}
	// 300-byte blobs under a 1000-byte budget: exactly three fit, even
	// though the entry cap (100) would admit all ten.
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3 (byte budget, not entry cap, must bind)", c.Len())
	}
	for _, k := range []string{"k7", "k8", "k9"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("most recent entry %s missing", k)
		}
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 should have been evicted by byte pressure")
	}
	if c.Stats().Evictions != 7 {
		t.Fatalf("evictions = %d, want 7", c.Stats().Evictions)
	}
}

// TestSizedRefreshAndRemoveAccounting pins the bookkeeping on the
// non-insert paths: refreshing a key re-charges its new size, Remove
// credits it back.
func TestSizedRefreshAndRemoveAccounting(t *testing.T) {
	c := NewSized[string, int](10, 100, func(v int) int { return v })
	c.Add("a", 40)
	c.Add("b", 40)
	c.Add("a", 10) // refresh smaller
	if got := c.Bytes(); got != 50 {
		t.Fatalf("bytes = %d after refresh, want 50", got)
	}
	c.Add("b", 95) // refresh larger: 10+95 > 100, must evict LRU (a)
	if got := c.Bytes(); got != 95 {
		t.Fatalf("bytes = %d after oversize refresh, want 95", got)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted when b grew")
	}
	c.Remove("b")
	if got := c.Bytes(); got != 0 {
		t.Fatalf("bytes = %d after remove, want 0", got)
	}
}

// TestSizedOversizeValueNotPinned: a single value bigger than the whole
// byte budget must not stay resident over the cap.
func TestSizedOversizeValueNotPinned(t *testing.T) {
	c := NewSized[string, int](10, 100, func(v int) int { return v })
	c.Add("big", 500)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversize value pinned: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}
