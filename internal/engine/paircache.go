package engine

import (
	"hash/maphash"
	"math/bits"
	"slices"
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
// The first sighting of a key runs the conjunction as if there were no
// cache; the second, detected by a bounded record of recent keys (seen),
// computes the pair on its own and admits it; later ones hit, and the rest
// of the conjunction runs on the cached list. Plans never consult the
// cache: the segment re-prices what remains on actual lengths, and the
// cached list carries no span, so it never prices BitsegAnd.
//
// The budget is one per engine: 1/pairBudgetDiv of the posting bytes the
// registered frozen segments hold, tracked as the tier changes. Admission
// and every tier change evict under it by CLOCK, whose reference bit each
// hit sets.

// pairMinLen is T, the length both head lists must reach in a segment for
// their pair to be cached: 2,500 docIDs, a df of about 10k over 4 shards.
// The lists below it intersect in a few microseconds, which a cached copy
// would save little of.
const pairMinLen = 2500

// pairBudgetDiv sets the budget: 1/16 of the frozen tier's posting bytes.
const pairBudgetDiv = 16

// pairEntryBytes is what an entry is charged beyond its docIDs: the entry,
// its map and ring slots and its two key strings.
const pairEntryBytes = 160

// pairSeenBits sizes the record of recently seen keys: 4,096 slots.
const pairSeenBits = 12

// pairKey names one head pair in one frozen segment; a < b.
type pairKey struct {
	seg  *segment.Frozen
	a, b string
}

// pairEntry is one cached intersection. docs never changes after admission.
type pairEntry struct {
	key  pairKey
	docs []uint32
	ref  bool // CLOCK's reference bit, set on each hit; guarded by pairCache.mu
}

// size is the bytes an entry is charged against the budget.
func (en *pairEntry) size() int64 { return pairEntryBytes + 4*int64(len(en.docs)) }

// pairCache is the engine's cache of head-pair intersections. Lookups,
// admissions and tier changes take mu, always after the owning shard's
// lock when they hold one.
type pairCache struct {
	minLen int  // T; pairMinLen, which tests lower to reach it on small corpora
	zero   bool // a zero budget: nothing is admitted (tests and benchmarks only)

	mu      sync.Mutex
	entries map[pairKey]*pairEntry
	ring    []*pairEntry // CLOCK order; the hand points at the next to examine
	hand    int
	live    map[*segment.Frozen]struct{} // the tier's frozen segments

	tier  atomic.Int64 // posting bytes of the live segments
	bytes atomic.Int64 // bytes charged for the entries

	// seen is the bounded record of recently seen keys: a key's hash in the
	// slot its top bits pick. A collision overwrites the slot, so a key is
	// admitted on its second sighting only if no other key took its slot in
	// between.
	seed maphash.Seed
	seen [1 << pairSeenBits]atomic.Uint64

	hits, misses, admissions, evictions *obs.Counter
}

func newPairCache(r *obs.Registry) *pairCache {
	pc := &pairCache{
		minLen:  pairMinLen,
		entries: map[pairKey]*pairEntry{},
		live:    map[*segment.Frozen]struct{}{},
		seed:    maphash.MakeSeed(),
		hits: r.Counter("fsi_pair_cache_hits_total",
			"Conjunctions whose head pair a frozen segment served from the pair cache."),
		misses: r.Counter("fsi_pair_cache_misses_total",
			"Lookups of an eligible head pair (both lists at least T long) that found no entry."),
		admissions: r.Counter("fsi_pair_cache_admissions_total",
			"Head-pair intersections admitted to the pair cache (on a key's second sighting)."),
		evictions: r.Counter("fsi_pair_cache_evictions_total",
			"Pair-cache entries evicted under the budget (entries of retired segments are dropped, not counted)."),
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

func (pc *pairCache) numEntries() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.ring)
}

// get returns k's cached intersection, setting its reference bit. It
// allocates nothing.
func (pc *pairCache) get(k pairKey) ([]uint32, bool) {
	pc.mu.Lock()
	en := pc.entries[k]
	if en != nil {
		en.ref = true
	}
	pc.mu.Unlock()
	if en == nil {
		pc.misses.Inc()
		return nil, false
	}
	pc.hits.Inc()
	return en.docs, true
}

// sighted records a sighting of k and reports whether it is the second,
// the one that admits. Under a zero budget nothing is recorded.
func (pc *pairCache) sighted(k pairKey) bool {
	if pc.budget() == 0 {
		return false
	}
	h := maphash.Comparable(pc.seed, k.seg) ^ maphash.String(pc.seed, k.a) ^
		bits.RotateLeft64(maphash.String(pc.seed, k.b), 32) | 1
	slot := &pc.seen[h>>(64-pairSeenBits)]
	if slot.CompareAndSwap(h, 0) {
		return true
	}
	slot.Store(h)
	return false
}

// admit caches an exact-size copy of docs, k's intersection, when k's
// segment is live, k is not cached yet and the entry fits the budget,
// evicting under it first.
func (pc *pairCache) admit(k pairKey, docs []uint32) {
	size := pairEntryBytes + 4*int64(len(docs))
	if size > pc.budget() {
		return
	}
	en := &pairEntry{key: pairKey{seg: k.seg, a: strings.Clone(k.a), b: strings.Clone(k.b)}}
	if len(docs) > 0 {
		// An exact-size copy: never the context buffer docs lives in.
		en.docs = append(make([]uint32, 0, len(docs)), docs...)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	budget := pc.budget()
	if _, live := pc.live[k.seg]; !live || pc.entries[k] != nil || size > budget {
		return
	}
	pc.evictLocked(budget - size)
	pc.entries[en.key] = en
	// Inserted just behind the hand: the last entry the sweep examines.
	pc.ring = slices.Insert(pc.ring, pc.hand, en)
	pc.hand++
	pc.bytes.Add(size)
	pc.admissions.Inc()
}

// evictLocked evicts by CLOCK until the entries hold at most limit bytes:
// the hand clears the reference bit of an entry hit since it last passed
// and evicts the first entry it finds without one. Caller holds mu.
func (pc *pairCache) evictLocked(limit int64) {
	for pc.bytes.Load() > limit && len(pc.ring) > 0 {
		if pc.hand >= len(pc.ring) {
			pc.hand = 0
		}
		en := pc.ring[pc.hand]
		if en.ref {
			en.ref = false
			pc.hand++
			continue
		}
		delete(pc.entries, en.key)
		pc.ring = slices.Delete(pc.ring, pc.hand, pc.hand+1)
		pc.bytes.Add(-en.size())
		pc.evictions.Inc()
	}
}

// replace records a change of the frozen tier: added segments join it,
// retired ones leave it with their entries, and the cache evicts under the
// budget the change leaves. Callers hold the lock of the shard whose tier
// changes, or own its segments exclusively — as swapShards owns a shard
// set it has yet to publish and one it has retired, whose tiers never
// change again — so a segment's registration and its retirement never
// reorder.
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
		kept, hand := pc.ring[:0], 0
		for i, en := range pc.ring {
			if i == pc.hand {
				hand = len(kept)
			}
			if _, ok := pc.live[en.key.seg]; ok {
				kept = append(kept, en)
				continue
			}
			delete(pc.entries, en.key)
			pc.bytes.Add(-en.size())
		}
		if pc.hand >= len(pc.ring) {
			hand = len(kept)
		}
		clear(pc.ring[len(kept):])
		pc.ring, pc.hand = kept, hand
	}
	pc.evictLocked(pc.budget())
}

// PairCacheStats reports the pair cache from its fsi_pair_cache_* series.
type PairCacheStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Admissions uint64 `json:"admissions"`
	Evictions  uint64 `json:"evictions"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Budget     int64  `json:"budget_bytes"`
}

func (pc *pairCache) stats() PairCacheStats {
	return PairCacheStats{
		Hits:       pc.hits.Value(),
		Misses:     pc.misses.Value(),
		Admissions: pc.admissions.Value(),
		Evictions:  pc.evictions.Value(),
		Entries:    pc.numEntries(),
		Bytes:      pc.bytes.Load(),
		Budget:     pc.budget(),
	}
}
