package engine

import (
	"strings"
	"sync"
	"sync/atomic"

	"fastintersect/internal/obs"
	"fastintersect/internal/segment"
)

// The pair cache reuses the intersection of a conjunction's two head term
// lists across queries and mutations, after Cohen–Porat's precomputed
// intersections among large sets (PAPERS.md), made demand-driven and
// budgeted.
//
// An entry is the exact-size intersection of two raw lists of one frozen
// segment, keyed by the segment and the two terms in sorted order, so two
// terms of equal df that swap places in the plan still hit. Frozen lists
// never change and a segment's tombstones are subtracted after the segment
// evaluates (evalFrozen), so no mutation invalidates an entry: it is valid
// for its segment's whole life. The swap that retires the segment — a
// merge, Compact, Install or LoadSnapshot — drops its entries; the cache
// registers every frozen segment of the tier (live) and admits entries only
// for those, so no entry outlives, or pins, its segment.
//
// The evaluator (intersectTerms) consults the cache only when both head
// lists of a conjunction hold at least pairMinLen docIDs in the segment.
// A hit runs the rest of the conjunction on the cached list. A miss while
// the budget has room for another entry computes the pair on its own,
// admits it if it fits and runs the rest on it; a miss without room runs
// the conjunction as if there were no cache. Plans never consult the
// cache: the segment re-prices what remains on actual lengths, and the
// cached list carries no span, so it never prices BitsegAnd.
//
// The budget is one per engine: 1/pairBudgetDiv of the posting bytes the
// registered frozen segments hold, tracked as the tier changes. Admission
// is first-come and nothing is evicted: an entry stays until its segment
// retires. Only a tier change that shrinks the budget below the bytes held
// (a merge that purges tombstones) drops entries beyond that, until the
// rest fit.

// pairMinLen is T, the length both head lists must reach in a segment for
// their pair to be cached: 2,500 docIDs, a df of about 10k over 4 shards.
// The lists below it intersect in a few microseconds, which a cached copy
// would save little of.
const pairMinLen = 2500

// pairBudgetDiv sets the budget: 1/16 of the frozen tier's posting bytes.
const pairBudgetDiv = 16

// pairEntryBytes is what an entry is charged beyond its docIDs: its map
// slot and its two key strings.
const pairEntryBytes = 160

// pairKey names one head pair in one frozen segment; a < b.
type pairKey struct {
	seg  *segment.Frozen
	a, b string
}

// pairBytes is what an entry of n docIDs is charged against the budget.
func pairBytes(n int) int64 { return pairEntryBytes + 4*int64(n) }

// pairCache is the engine's cache of head-pair intersections. Lookups,
// admissions and tier changes take mu, always after the owning shard's
// lock when they hold one.
type pairCache struct {
	minLen int  // T; pairMinLen, which tests lower to reach it on small corpora
	zero   bool // a zero budget: nothing is admitted (tests and benchmarks only)

	mu      sync.Mutex
	entries map[pairKey][]uint32         // never changed after admission
	live    map[*segment.Frozen]struct{} // the tier's frozen segments

	tier  atomic.Int64 // posting bytes of the live segments
	bytes atomic.Int64 // bytes charged for the entries

	hits, misses, admissions *obs.Counter
}

func newPairCache(r *obs.Registry) *pairCache {
	pc := &pairCache{
		minLen:  pairMinLen,
		entries: map[pairKey][]uint32{},
		live:    map[*segment.Frozen]struct{}{},
		hits: r.Counter("fsi_pair_cache_hits_total",
			"Conjunctions whose head pair a frozen segment served from the pair cache."),
		misses: r.Counter("fsi_pair_cache_misses_total",
			"Lookups of an eligible head pair (both lists at least T long) that found no entry."),
		admissions: r.Counter("fsi_pair_cache_admissions_total",
			"Head-pair intersections admitted to the pair cache (first come, while the budget has room)."),
	}
	r.GaugeFunc("fsi_pair_cache_bytes", "Bytes the pair cache's entries hold.",
		func() float64 { return float64(pc.bytes.Load()) })
	r.GaugeFunc("fsi_pair_cache_budget_bytes", "The pair cache's budget: 1/16 of the frozen segments' posting bytes.",
		func() float64 { return float64(pc.budget()) })
	r.GaugeFunc("fsi_pair_cache_entries", "Pair-cache resident entries.",
		func() float64 { return float64(pc.numEntries()) })
	return pc
}

// budget returns the bytes the entries may hold.
func (pc *pairCache) budget() int64 {
	if pc.zero {
		return 0
	}
	return pc.tier.Load() / pairBudgetDiv
}

// room reports whether the budget has room for one more entry.
func (pc *pairCache) room() bool {
	return pc.bytes.Load()+pairEntryBytes <= pc.budget()
}

func (pc *pairCache) numEntries() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// get returns k's cached intersection. It allocates nothing.
func (pc *pairCache) get(k pairKey) ([]uint32, bool) {
	pc.mu.Lock()
	docs, ok := pc.entries[k]
	pc.mu.Unlock()
	if !ok {
		pc.misses.Inc()
		return nil, false
	}
	pc.hits.Inc()
	return docs, true
}

// admit caches an exact-size copy of docs, k's intersection, when k's
// segment is live, k is not cached yet and the entry fits in what the
// budget leaves. Nothing is evicted to make room.
func (pc *pairCache) admit(k pairKey, docs []uint32) {
	size := pairBytes(len(docs))
	if pc.bytes.Load()+size > pc.budget() {
		return
	}
	k.a, k.b = strings.Clone(k.a), strings.Clone(k.b)
	var cp []uint32
	if len(docs) > 0 {
		// An exact-size copy: never the context buffer docs lives in.
		cp = append(make([]uint32, 0, len(docs)), docs...)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	_, live := pc.live[k.seg]
	_, dup := pc.entries[k]
	if !live || dup || pc.bytes.Load()+size > pc.budget() {
		return
	}
	pc.entries[k] = cp
	pc.bytes.Add(size)
	pc.admissions.Inc()
}

// replace records a change of the frozen tier: added segments join it,
// retired ones leave it with their entries, and if the change leaves the
// budget below the bytes held, entries leave in map order until the rest
// fit. Callers hold the lock of the shard whose tier changes, or own its
// segments exclusively — as swapShards owns a shard set it has yet to
// publish and one it has retired, whose tiers never change again — so a
// segment's registration and its retirement never reorder.
func (pc *pairCache) replace(retired []*segment.Frozen, added ...*segment.Frozen) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, f := range added {
		pc.live[f] = struct{}{}
		pc.tier.Add(4 * int64(f.NumPostings()))
	}
	dropped := false
	for _, f := range retired {
		if _, ok := pc.live[f]; ok {
			delete(pc.live, f)
			pc.tier.Add(-4 * int64(f.NumPostings()))
			dropped = true
		}
	}
	if dropped {
		for k, docs := range pc.entries {
			if _, ok := pc.live[k.seg]; !ok {
				delete(pc.entries, k)
				pc.bytes.Add(-pairBytes(len(docs)))
			}
		}
	}
	for k, docs := range pc.entries {
		if pc.bytes.Load() <= pc.budget() {
			break
		}
		delete(pc.entries, k)
		pc.bytes.Add(-pairBytes(len(docs)))
	}
}

// PairCacheStats reports the pair cache from its fsi_pair_cache_* series.
type PairCacheStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Admissions uint64 `json:"admissions"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Budget     int64  `json:"budget_bytes"`
}

func (pc *pairCache) stats() PairCacheStats {
	return PairCacheStats{
		Hits:       pc.hits.Value(),
		Misses:     pc.misses.Value(),
		Admissions: pc.admissions.Value(),
		Entries:    pc.numEntries(),
		Bytes:      pc.bytes.Load(),
		Budget:     pc.budget(),
	}
}
