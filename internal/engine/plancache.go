package engine

import (
	"sync"

	"fastintersect/internal/plan"
)

// planCache memoizes built physical plans by their canonical query form,
// stamped with the statistics epoch they were priced against. It exists for
// engines whose result cache is disabled or cold: the repeated cost of a hot
// query then is planning (statistics aggregation + Build), not execution
// setup, and the plan for a given canonical form only goes stale when the
// underlying statistics change shape.
//
// Staleness is tracked by Engine.statsEpoch, NOT the index generation:
// document mutations bump the generation every time (they must — cached
// *results* would otherwise resurrect deleted documents), but a plan is
// only estimates, and serving one a few mutations or compactions old is
// correctness-safe because every shard re-prices kernels on its actual
// operand sizes at execution (see exec.go). What a plan should not survive
// is a wholesale corpus change: Install and LoadSnapshot bump the epoch,
// and entries stamped with an older epoch are rebuilt.
//
// Cached plans are shared read-only across concurrent queries: execution
// never writes to a plan (per-query state lives on the exec contexts), and
// Explain/Analyze always rebuild into a pooled plan instead.
type planCache struct {
	mu sync.RWMutex
	m  map[string]planEntry
}

type planEntry struct {
	p     *plan.Plan
	epoch uint64
}

// planCacheCap bounds resident entries. Distinct canonical forms in a real
// workload are few; hitting the cap means something is generating unbounded
// query shapes, so dropping the whole map (and re-planning a few queries)
// is cheaper than tracking recency per entry.
const planCacheCap = 4096

func newPlanCache() *planCache {
	return &planCache{m: make(map[string]planEntry)}
}

// get returns the cached plan for key if it was built at the given epoch.
func (pc *planCache) get(key string, epoch uint64) *plan.Plan {
	pc.mu.RLock()
	e, ok := pc.m[key]
	pc.mu.RUnlock()
	if !ok || e.epoch != epoch {
		return nil
	}
	return e.p
}

// put stores a freshly built plan. A concurrent put for the same key wins
// arbitrarily — both plans were built from the same epoch's statistics.
func (pc *planCache) put(key string, p *plan.Plan, epoch uint64) {
	pc.mu.Lock()
	if len(pc.m) >= planCacheCap {
		clear(pc.m)
	}
	pc.m[key] = planEntry{p: p, epoch: epoch}
	pc.mu.Unlock()
}

// entries reports the resident entry count (for Stats and /metrics).
func (pc *planCache) entries() int {
	pc.mu.RLock()
	n := len(pc.m)
	pc.mu.RUnlock()
	return n
}
