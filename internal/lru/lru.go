// Package lru is a small, thread-safe, generic LRU cache used for
// content-addressed synthesis results (internal/server): keys are
// canonical content hashes, values are serializable job results. A
// capacity of zero disables the cache entirely (every Get misses, Add is
// a no-op), which keeps call sites free of nil checks.
package lru

import (
	"container/list"
	"sync"

	"relsyn/internal/obs"
)

// Cache is a fixed-capacity least-recently-used map.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element

	// Byte accounting (NewSized): size charges each value at Add time
	// and bytes tracks the resident total. The eviction loop keeps both
	// the entry count and the byte total within budget, so values with
	// large attached payloads (census blobs are two orders of magnitude
	// bigger than a job result) cannot blow past the configured cap by
	// riding an entry-count-only limit.
	maxBytes int64
	size     func(V) int
	bytes    int64

	// hit/miss/evict counters are always live (zero-value obs.Counter is
	// usable); Instrument additionally exports them on a registry.
	hits, misses, evictions obs.Counter
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns a cache holding at most capacity entries. capacity <= 0
// yields a disabled cache.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// NewSized returns a cache bounded by both an entry count and a byte
// budget: size reports each value's resident bytes at insertion time
// and eviction runs until Σ size ≤ maxBytes (and the entry count is
// within capacity). The byte cap is strict — a value larger than the
// whole budget is evicted immediately rather than pinned — so the
// resident total never exceeds maxBytes. maxBytes <= 0 disables byte
// accounting; size must not be nil when maxBytes is positive.
func NewSized[K comparable, V any](capacity int, maxBytes int64, size func(V) int) *Cache[K, V] {
	c := New[K, V](capacity)
	if maxBytes > 0 {
		if size == nil {
			panic("lru: NewSized requires a size function")
		}
		c.maxBytes = maxBytes
		c.size = size
	}
	return c
}

// Instrument exports the cache's counters and occupancy on reg, labeled
// cache=name: relsyn_cache_{hits,misses,evictions}_total and the
// relsyn_cache_entries / relsyn_cache_capacity gauges. Call once, before
// the cache is shared.
func (c *Cache[K, V]) Instrument(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	l := obs.L("cache", name)
	reg.SetHelp("relsyn_cache_hits_total", "Cache lookups served from the cache.")
	reg.SetHelp("relsyn_cache_misses_total", "Cache lookups that missed.")
	reg.SetHelp("relsyn_cache_evictions_total", "Entries evicted by capacity pressure.")
	reg.SetHelp("relsyn_cache_entries", "Current cache occupancy.")
	reg.SetHelp("relsyn_cache_capacity", "Configured cache capacity.")
	reg.RegisterCounter("relsyn_cache_hits_total", &c.hits, l)
	reg.RegisterCounter("relsyn_cache_misses_total", &c.misses, l)
	reg.RegisterCounter("relsyn_cache_evictions_total", &c.evictions, l)
	reg.GaugeFunc("relsyn_cache_entries", func() float64 { return float64(c.Len()) }, l)
	reg.GaugeFunc("relsyn_cache_capacity", func() float64 { return float64(c.cap) }, l)
	reg.SetHelp("relsyn_cache_bytes", "Resident bytes of cached values (0 unless the cache is byte-accounted).")
	reg.GaugeFunc("relsyn_cache_bytes", func() float64 { return float64(c.Bytes()) }, l)
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Len       int   `json:"len"`
	Cap       int   `json:"cap"`
	Bytes     int64 `json:"bytes,omitempty"`
	MaxBytes  int64 `json:"max_bytes,omitempty"`
}

// Stats snapshots the hit/miss/eviction counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Len:       c.Len(),
		Cap:       c.cap,
		Bytes:     c.Bytes(),
		MaxBytes:  c.maxBytes,
	}
}

// Get returns the value for k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.hits.Inc()
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses.Inc()
	var zero V
	return zero, false
}

// Peek returns the value for k like Get, but counts neither a hit nor
// a miss and leaves recency alone: it is for a re-probe whose caller
// has already counted its lookup.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts or refreshes k -> v, evicting least recently used
// entries while either the entry count or the byte total is over
// budget.
func (c *Cache[K, V]) Add(k K, v V) {
	if c.cap == 0 {
		return
	}
	var sz int64
	if c.size != nil {
		sz = int64(c.size(v))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry[K, V])
		c.bytes += sz - e.size
		e.val, e.size = v, sz
		c.ll.MoveToFront(el)
		c.evictOver()
		return
	}
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v, size: sz})
	c.bytes += sz
	c.evictOver()
}

// evictOver drops LRU entries until both budgets hold. Called with the
// lock held. The loop may consume the entry just inserted (an oversized
// value evicts itself) — that keeps the byte bound strict instead of
// letting one huge blob pin the cache over its cap.
func (c *Cache[K, V]) evictOver() {
	for c.ll.Len() > 0 && (c.ll.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.ll.Back()
		e := oldest.Value.(*entry[K, V])
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.evictions.Inc()
	}
}

// Remove deletes k, reporting whether it was present.
func (c *Cache[K, V]) Remove(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	c.bytes -= el.Value.(*entry[K, V]).size
	delete(c.items, k)
	return true
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the configured capacity.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Bytes returns the resident byte total (0 unless byte-accounted).
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// MaxBytes returns the configured byte budget (0 = unaccounted).
func (c *Cache[K, V]) MaxBytes() int64 { return c.maxBytes }
