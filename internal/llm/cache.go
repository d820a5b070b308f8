package llm

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/schema"
)

// Completer is the completion surface operators call. Service, RetryClient,
// and CachedClient all implement it, so executors can stack retry and
// caching layers freely.
type Completer interface {
	Complete(req Request) (*Response, error)
}

// Cache memoizes completion responses by semantic request identity, the way
// Palimpzest caches LLM results so that re-running a pipeline over unchanged
// data costs nothing. Optionally bounded: with a capacity, the least
// recently used entry is evicted when a new one would exceed it, so
// sustained serving traffic cannot grow the cache without limit. Safe for
// concurrent use.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[cacheKey]*list.Element
	order     *list.List // front = most recently used
	hits      int
	misses    int
	evictions int
	saved     float64
}

// cacheEntry is one LRU node: the key (so eviction can delete from the
// map) and the stored response.
type cacheEntry struct {
	key  cacheKey
	resp Response
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache { return NewCacheLRU(0) }

// NewCacheLRU returns an empty cache bounded to capacity entries with
// least-recently-used eviction. capacity <= 0 means unbounded (the
// NewCache behavior).
func NewCacheLRU(capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{
		capacity: capacity,
		entries:  map[cacheKey]*list.Element{},
		order:    list.New(),
	}
}

// cacheKey is the cache identity of a request: model, task, the semantic
// task inputs, and the record's content digest. The raw prompt text is
// deliberately excluded — equivalent requests with cosmetically different
// prompts still hit. Every member is comparable and, but for the strings
// the request already holds, fixed-size, so a key costs no allocation for
// a filter request.
type cacheKey struct {
	model     string
	task      Task
	predicate string
	// fields is the sorted "name:type" list of the extraction targets,
	// comma-joined ("" for a filter).
	fields    string
	oneToMany bool
	// boostMilli is QualityBoost in thousandths.
	boostMilli int64
	digest     uint64
}

// keyOf derives the cache identity of a request.
func keyOf(req Request) cacheKey {
	return cacheKey{
		model:      req.Model,
		task:       req.Task,
		predicate:  req.Predicate,
		fields:     fieldSignature(req.Fields),
		oneToMany:  req.OneToMany,
		boostMilli: int64(math.Round(req.QualityBoost * 1000)),
		digest:     req.Record.Digest(),
	}
}

// fieldSignature renders fields as their sorted, comma-joined "name:type"
// pairs, so the same targets in any order give the same signature.
func fieldSignature(fields []schema.Field) string {
	switch len(fields) {
	case 0:
		return ""
	case 1:
		return fields[0].Name + ":" + fields[0].Type.String()
	}
	sig := make([]string, len(fields))
	for i, f := range fields {
		sig[i] = f.Name + ":" + f.Type.String()
	}
	sort.Strings(sig)
	return strings.Join(sig, ",")
}

// CacheStats is a snapshot of cache effectiveness.
type CacheStats struct {
	// Hits and Misses count lookups.
	Hits, Misses int
	// Evictions counts entries dropped by the LRU bound.
	Evictions int
	// SavedUSD is the dollar cost hits avoided paying.
	SavedUSD float64
	// Len and Capacity describe occupancy (Capacity 0 = unbounded).
	Len, Capacity int
}

// Stats reports cache effectiveness: hits, misses, evictions, and dollars
// saved.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		SavedUSD: c.saved, Len: len(c.entries), Capacity: c.capacity,
	}
}

// Len returns the number of cached responses.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// lookup returns the cached response for key, updating hit/miss counters
// and recency order.
func (c *Cache) lookup(key cacheKey) (Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return Response{}, false
	}
	c.hits++
	entry := el.Value.(*cacheEntry)
	c.saved += entry.resp.CostUSD
	c.order.MoveToFront(el)
	return entry.resp, true
}

// store inserts a response, evicting the least recently used entry when
// the capacity bound would be exceeded.
func (c *Cache) store(key cacheKey, resp Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A concurrent miss on the same key already stored it; refresh.
		el.Value.(*cacheEntry).resp = resp
		c.order.MoveToFront(el)
		return
	}
	if c.capacity > 0 && len(c.entries) >= c.capacity {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
			c.evictions++
		}
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, resp: resp})
}

// CachedClient layers a Cache over any Completer. Hits return a copy of the
// stored response with zero cost and negligible latency; misses pass
// through and populate the cache.
type CachedClient struct {
	inner Completer
	cache *Cache
}

// NewCachedClient wraps inner with cache.
func NewCachedClient(inner Completer, cache *Cache) (*CachedClient, error) {
	if inner == nil || cache == nil {
		return nil, fmt.Errorf("llm: cached client needs inner completer and cache")
	}
	return &CachedClient{inner: inner, cache: cache}, nil
}

// Cache exposes the underlying cache (for statistics).
func (c *CachedClient) Cache() *Cache { return c.cache }

// Complete implements Completer.
func (c *CachedClient) Complete(req Request) (*Response, error) {
	if req.Record == nil {
		// Let the inner client produce its usual validation error.
		return c.inner.Complete(req)
	}
	key := keyOf(req)
	if cached, ok := c.cache.lookup(key); ok {
		hit := cached
		hit.CostUSD = 0
		hit.Latency = 0
		hit.Cached = true
		hit.Extractions = copyExtractions(cached.Extractions)
		return &hit, nil
	}

	resp, err := c.inner.Complete(req)
	if err != nil {
		return nil, err
	}
	stored := *resp
	stored.Extractions = copyExtractions(resp.Extractions)
	c.cache.store(key, stored)
	return resp, nil
}

func copyExtractions(exs []map[string]string) []map[string]string {
	if exs == nil {
		return nil
	}
	out := make([]map[string]string, len(exs))
	for i, ex := range exs {
		m := make(map[string]string, len(ex))
		for k, v := range ex {
			m[k] = v
		}
		out[i] = m
	}
	return out
}
