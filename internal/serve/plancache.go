package serve

import (
	"repro/internal/lru"
	"repro/internal/optimizer"
)

// PlanCache memoizes optimized physical plans across queries, keyed by the
// canonical fingerprint of (logical plan, policy, optimizer options) from
// optimizer.Fingerprint. A repeat query skips enumeration and selection
// entirely and replays the cached plan — the serving-layer analogue of the
// LLM response cache one level down. Bounded with LRU eviction; safe for
// concurrent use.
//
// Cached *optimizer.Plan values are shared by concurrent executions; that
// is sound because physical operators never mutate themselves during
// Execute (calibration writes happen only inside the optimizer, before a
// plan is published here).
type PlanCache = lru.Cache[string, CachedPlan]

// CachedPlan is a plan cache entry: an optimized plan and the number of
// candidates its optimization enumerated.
type CachedPlan struct {
	Plan       *optimizer.Plan
	Candidates int
}

// PlanCacheStats is a snapshot of cache effectiveness.
type PlanCacheStats struct {
	Hits     int `json:"hits"`
	Misses   int `json:"misses"`
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}
