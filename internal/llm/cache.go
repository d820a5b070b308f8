package llm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/lru"
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
// sustained serving traffic cannot grow the cache without limit. Equal
// requests that miss together make one call. Safe for concurrent use.
type Cache struct {
	lru   *lru.Cache[cacheKey, Response]
	mu    sync.Mutex
	saved float64
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache { return NewCacheLRU(0) }

// NewCacheLRU returns an empty cache bounded to capacity entries with
// least-recently-used eviction. capacity <= 0 means unbounded (the
// NewCache behavior).
func NewCacheLRU(capacity int) *Cache {
	return &Cache{lru: lru.New[cacheKey, Response](capacity, nil)}
}

// cacheKey is the cache identity of a request: model, task, the semantic
// task inputs, and the record's content digest. The raw prompt text is
// deliberately excluded — equivalent requests with cosmetically different
// prompts still hit. Every member is comparable and, but for the strings
// the request already holds, fixed-size, so a key costs no allocation.
type cacheKey struct {
	model     string
	task      Task
	predicate string
	// fields is fieldsHash of the extraction targets (0 for a filter).
	fields    uint64
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
		fields:     fieldsHash(req.Fields),
		oneToMany:  req.OneToMany,
		boostMilli: int64(math.Round(req.QualityBoost * 1000)),
		digest:     req.Record.Digest(),
	}
}

// fieldsHash identifies a set of extraction targets by their names and
// types in any order, without building a string: each field's FNV-1a hash
// is mixed (by splitmix64's finalizer, so related fields do not cancel)
// and the results are summed.
func fieldsHash(fields []schema.Field) uint64 {
	var sum uint64
	for _, f := range fields {
		h := (fnv1a(f.Name) ^ uint64(f.Type)) * fnvPrime64
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		sum += h ^ h>>31
	}
	return sum
}

// CacheStats is a snapshot of cache effectiveness.
type CacheStats struct {
	// Hits and Misses count lookups; a request that waited on an equal
	// request's call is a hit.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int `json:"evictions"`
	// SavedUSD is the dollar cost hits avoided paying.
	SavedUSD float64 `json:"saved_usd"`
	// Len and Capacity describe occupancy (Capacity 0 = unbounded).
	Len      int `json:"len"`
	Capacity int `json:"capacity"`
}

// Stats reports cache effectiveness: hits, misses, evictions, and dollars
// saved.
func (c *Cache) Stats() CacheStats {
	st := c.lru.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		SavedUSD: c.saved, Len: st.Len, Capacity: st.Budget,
	}
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

// Complete implements Completer. A request equal to one already in flight
// waits for that call's response instead of making its own.
func (c *CachedClient) Complete(req Request) (*Response, error) {
	if req.Record == nil {
		// Let the inner client produce its usual validation error.
		return c.inner.Complete(req)
	}
	var fresh *Response
	cached, err := c.cache.lru.GetOrCompute(keyOf(req), func() (Response, error) {
		resp, err := c.inner.Complete(req)
		if err != nil {
			return Response{}, err
		}
		fresh = resp
		stored := *resp
		stored.Extractions = copyExtractions(resp.Extractions)
		return stored, nil
	})
	if err != nil {
		return nil, err
	}
	if fresh != nil {
		return fresh, nil
	}
	c.cache.mu.Lock()
	c.cache.saved += cached.CostUSD
	c.cache.mu.Unlock()
	hit := cached
	hit.CostUSD = 0
	hit.Latency = 0
	hit.Cached = true
	hit.Extractions = copyExtractions(cached.Extractions)
	return &hit, nil
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
