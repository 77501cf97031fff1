package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Cache stores completed job results keyed by content fingerprint
// (Job.Fingerprint). Implementations must be safe for concurrent use.
type Cache interface {
	// Get returns the cached metrics for key, if present. The result
	// may share its maps and Relia batch with the cache's own copy, so
	// callers must not modify it.
	Get(key string) (core.Metrics, bool)
	// Put stores the metrics for key.
	Put(key string, m core.Metrics) error
}

// MemCache is an in-process Cache, useful for sharing simulation work
// inside one process (tests), and the memory tier in which a DiskCache
// keeps the entries it has decoded.
type MemCache struct {
	mu sync.RWMutex
	m  map[string]core.Metrics
	// bytes is the encoded size of the entries kept since the tier last
	// started over (see keep). Put does not count, and drop does not
	// subtract, so it never under-states what a DiskCache tier holds.
	bytes int
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache { return &MemCache{m: make(map[string]core.Metrics)} }

// Get implements Cache.
func (c *MemCache) Get(key string) (core.Metrics, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.m[key]
	return m, ok
}

// Put implements Cache.
func (c *MemCache) Put(key string, m core.Metrics) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = m
	return nil
}

// Len reports the number of cached results.
func (c *MemCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// keep stores m, whose encoding is size bytes, under a budget on the
// encoded size of everything kept: when m would push the total past
// budget the tier starts over, and an entry larger than the whole
// budget is not kept at all. A key already present keeps its copy.
func (c *MemCache) keep(key string, m core.Metrics, size, budget int) {
	if size > budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	if c.bytes+size > budget {
		clear(c.m)
		c.bytes = 0
	}
	c.m[key] = m
	c.bytes += size
}

// drop forgets key's kept copy, if any.
func (c *MemCache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, key)
}

// CountingCache wraps a Cache with hit/miss/store counters, so
// services can report cache effectiveness without instrumenting every
// call site. Safe for concurrent use when the wrapped cache is.
type CountingCache struct {
	inner              Cache
	hits, misses, puts atomic.Uint64
}

// NewCountingCache wraps inner.
func NewCountingCache(inner Cache) *CountingCache {
	return &CountingCache{inner: inner}
}

// Get implements Cache.
func (c *CountingCache) Get(key string) (core.Metrics, bool) {
	m, ok := c.inner.Get(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return m, ok
}

// Put implements Cache.
func (c *CountingCache) Put(key string, m core.Metrics) error {
	c.puts.Add(1)
	return c.inner.Put(key, m)
}

// Stats reports the lifetime hit/miss/store counts.
func (c *CountingCache) Stats() (hits, misses, puts uint64) {
	return c.hits.Load(), c.misses.Load(), c.puts.Load()
}

// diskMemBudget bounds the encoded size of the entries a DiskCache
// keeps decoded in memory. A quick-scale performance cell encodes to
// about 1.4 KB, so the budget holds tens of thousands of them while
// bounding a long-lived service.
const diskMemBudget = 64 << 20

// DiskCache is a content-addressed on-disk Cache: each result lives at
// <dir>/<fp[:2]>/<fp>.json. Interrupted campaigns resume for free — on
// the next run every already-completed job is a cache hit — and
// overlapping campaigns share each other's work. Writes go through a
// temp file plus rename so concurrent writers and readers never see a
// torn entry.
//
// Get reads and decodes an entry's file the first time only: it keeps
// what it decoded in a memory tier and serves later Gets of the key
// from there. A key always names the same deterministic result, so a
// kept copy never goes stale. The tier holds only entries decoded
// successfully from disk (a corrupt or missing entry stays a miss),
// Put drops the key's kept copy, and diskMemBudget bounds the tier;
// an entry the tier let go of is read from disk again.
type DiskCache struct {
	dir string
	mem *MemCache
}

// NewDiskCache opens (creating if needed) a disk cache rooted at dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: cache dir: %w", err)
	}
	return &DiskCache{dir: dir, mem: NewMemCache()}, nil
}

// Dir returns the cache root.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(key string) string {
	if len(key) < 2 {
		key = "__" + key
	}
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get implements Cache.
func (c *DiskCache) Get(key string) (core.Metrics, bool) {
	if m, ok := c.mem.Get(key); ok {
		return m, true
	}
	var m core.Metrics
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return m, false
	}
	if err := json.Unmarshal(data, &m); err != nil {
		// A corrupt entry is treated as a miss; the rerun overwrites it.
		return core.Metrics{}, false
	}
	c.mem.keep(key, m, len(data), diskMemBudget)
	return m, true
}

// Put implements Cache.
func (c *DiskCache) Put(key string, m core.Metrics) error {
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return err
	}
	c.mem.drop(key)
	return nil
}
