package engine

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fastintersect/internal/race"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// tunePairs sets the pair-cache threshold of an engine that has served no
// query to minLen, so a small test corpus reaches it, and with zero gives
// it a zero budget.
func tunePairs(e *Engine, minLen int, zero bool) *Engine {
	e.pairs.minLen = minLen
	e.pairs.zero = zero
	return e
}

// checkPairInvariants holds a quiescent engine's pair cache to its
// contract: it registers exactly the frozen segments its shards hold, and
// their posting bytes; every entry belongs to one of them, so no key pins a
// retired segment; and the bytes gauge is the entries' bytes, within the
// budget.
func checkPairInvariants(t *testing.T, e *Engine, step string) {
	t.Helper()
	segs := map[*segment.Frozen]bool{}
	var tier int64
	for _, s := range e.snapshot() {
		s.mu.RLock()
		for _, f := range s.segs {
			segs[f] = true
			tier += 4 * int64(f.NumPostings())
		}
		s.mu.RUnlock()
	}
	st := e.Stats().PairCache
	pc := e.pairs
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if len(pc.live) != len(segs) {
		t.Fatalf("%s: the pair cache registers %d segments, the shards hold %d", step, len(pc.live), len(segs))
	}
	for f := range pc.live {
		if !segs[f] {
			t.Fatalf("%s: the pair cache registers a segment no shard holds", step)
		}
	}
	if got := pc.tier.Load(); got != tier {
		t.Fatalf("%s: the pair cache counts %d tier bytes, the shards hold %d", step, got, tier)
	}
	var bytes int64
	for k, docs := range pc.entries {
		if !segs[k.seg] {
			t.Fatalf("%s: the entry for (%s, %s) pins a retired segment", step, k.a, k.b)
		}
		bytes += pairBytes(len(docs))
	}
	if st.Bytes != bytes || st.Entries != len(pc.entries) {
		t.Fatalf("%s: gauges read %d bytes in %d entries, the entries hold %d in %d", step, st.Bytes, st.Entries, bytes, len(pc.entries))
	}
	if bytes > st.Budget {
		t.Fatalf("%s: %d bytes cached over a %d-byte budget", step, bytes, st.Budget)
	}
}

// runTimes runs q n times and checks every answer against pred.
func runTimes(t *testing.T, e *Engine, numDocs uint32, q string, pred func(d uint32) bool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		checkQuery(t, e, numDocs, q, pred)
	}
}

// TestPairCacheServesAcrossDeletes: an entry stays valid under mutation.
// Deleting a document inside a cached intersection drops it from the next
// answer, while the entry still serves, and a re-added copy comes back from
// the active segment.
func TestPairCacheServesAcrossDeletes(t *testing.T) {
	const numDocs = 4000
	e := tunePairs(buildTestEngine(t, Config{Shards: 2}, numDocs), 64, false)
	m6 := func(d uint32) bool { return d%6 == 0 }
	// Admission, hit, hit — in each of the two shards.
	runTimes(t, e, numDocs, "m2 AND m3", m6, 3)
	st := e.Stats().PairCache
	if st.Admissions != 2 || st.Hits != 4 || st.Entries != 2 {
		t.Fatalf("after three runs: %+v, want 2 admissions, 4 hits and 2 entries", st)
	}
	// A wider conjunction, spelled in another order, whose plan puts the
	// same two terms first runs the rest on the cached list.
	runTimes(t, e, numDocs, "all AND m3 AND m2", m6, 1)
	if got := e.Stats().PairCache.Hits; got != 6 {
		t.Fatalf("all AND m3 AND m2 took %d hits, want 2 more than 4", got)
	}
	const victim = 42 // in m2 ∩ m3, so in one shard's cached pair
	if was, err := e.DeleteDocument(victim); err != nil || !was {
		t.Fatalf("DeleteDocument(%d) = %v, %v", victim, was, err)
	}
	deleted := func(pred func(uint32) bool) func(uint32) bool {
		return func(d uint32) bool { return d != victim && pred(d) }
	}
	runTimes(t, e, numDocs, "m2 AND m3", deleted(m6), 1)
	runTimes(t, e, numDocs, "m2 AND m3 AND all", deleted(m6), 1)
	st = e.Stats().PairCache
	if st.Admissions != 2 || st.Hits != 10 || st.Entries != 2 {
		t.Fatalf("after the delete: %+v, want the 2 entries still serving (10 hits, no admission)", st)
	}
	if err := e.AddDocument(victim, testDocTerms(victim)); err != nil {
		t.Fatal(err)
	}
	runTimes(t, e, numDocs, "m2 AND m3", m6, 1)
	if got := e.Stats().PairCache.Hits; got != 12 {
		t.Fatalf("after the re-add: %d hits, want 12", got)
	}
	checkPairInvariants(t, e, "end")
}

// TestPairCacheLifecycle: every swap that retires a segment drops its
// entries — a size-tiered merge, Compact, LoadSnapshot and Install — while
// the entries of segments that stay keep serving. After each, the cache
// holds only live segments' entries and its bytes gauge counts exactly
// them.
func TestPairCacheLifecycle(t *testing.T) {
	const numDocs = 4000
	e := tunePairs(buildTestEngine(t, Config{Shards: 2, MaxSegments: 1}, numDocs), 16, false)
	addTier(t, e, numDocs, 7) // two frozen segments beside the installed one
	// Both queries' plans put m5 and m3 first: one head pair per segment.
	queries := []struct {
		q    string
		pred func(uint32) bool
	}{
		{"m3 AND m5", func(d uint32) bool { return d%15 == 0 }},
		{"all AND m5 AND m3 AND NOT m2", func(d uint32) bool { return d%15 == 0 && d%2 != 0 }},
	}
	warm := func(step string) PairCacheStats {
		t.Helper()
		for _, tq := range queries {
			runTimes(t, e, numDocs, tq.q, tq.pred, 3)
		}
		checkPairInvariants(t, e, step)
		return e.Stats().PairCache
	}
	if st := warm("tiered"); st.Entries != 3*2 || st.Admissions != 3*2 {
		t.Fatalf("tiered: %+v, want 6 admissions and 6 entries (3 segments × 2 shards)", st)
	}
	if err := e.MergeSegments(); err != nil {
		t.Fatal(err)
	}
	checkPairInvariants(t, e, "merged")
	if got := e.Stats().PairCache.Entries; got != 2 {
		t.Fatalf("after the tiered merge: %d entries, want the installed segments' 2", got)
	}
	hits := e.Stats().PairCache.Hits
	runTimes(t, e, numDocs, queries[0].q, queries[0].pred, 1)
	if got := e.Stats().PairCache.Hits; got != hits+2 {
		t.Fatalf("the installed segments' entries stopped serving: %d hits, want %d", got, hits+2)
	}
	if st := warm("merged, warm"); st.Entries != 2*2 {
		t.Fatalf("after the tiered merge, warm: %d entries, want 4", st.Entries)
	}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"compact", e.Compact},
		{"load snapshot", func() error {
			dir := filepath.Join(t.TempDir(), "snap")
			if err := e.SaveSnapshot(dir); err != nil {
				return err
			}
			return e.LoadSnapshot(dir)
		}},
		{"install", func() error {
			b := e.NewBuilder()
			for d := uint32(0); d < numDocs; d++ {
				if err := b.Add(d, testDocTerms(d)); err != nil {
					return err
				}
			}
			return e.Install(b)
		}},
	} {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		checkPairInvariants(t, e, step.name)
		if got := e.Stats().PairCache.Entries; got != 0 {
			t.Fatalf("%s retired every segment but left %d entries", step.name, got)
		}
		if st := warm(step.name + ", warm"); st.Entries != 2 {
			t.Fatalf("%s, warm: %d entries, want 2", step.name, st.Entries)
		}
	}
}

// TestPairCacheBudget: the budget is 1/16 of the frozen tier's posting
// bytes, and admission is first-come under it. Entries fill it; the next
// that does not fit is refused with nothing evicted, while a smaller one
// that still fits is admitted. A tier change that shrinks the budget below
// the bytes held drops entries until the rest fit, and a segment the tier
// does not hold is never cached.
func TestPairCacheBudget(t *testing.T) {
	e := tunePairs(New(Config{Shards: 1}), 1, false)
	b := e.NewBuilder()
	docs := make([]uint32, 16_000)
	for i := range docs {
		docs[i] = uint32(i)
	}
	if err := b.AddPosting("x", docs); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	pc := e.pairs
	seg := e.snapshot()[0].segs[0]
	if got, want := pc.budget(), int64(4*16_000/16); got != want {
		t.Fatalf("budget %d, want %d", got, want)
	}
	list := docs[:200]
	other := segment.Build(map[string][]uint32{"x": docs}, 1)
	pc.admit(pairKey{seg: other, a: "a", b: "b"}, list)
	if _, ok := pc.get(pairKey{seg: other, a: "a", b: "b"}); ok {
		t.Error("admitted an entry for a segment outside the tier")
	}
	// Each entry is charged 160 + 4·200 = 960 bytes: four fit in 4,000 and
	// leave 160, so the fifth is refused.
	key := func(i int) pairKey { return pairKey{seg: seg, a: "a", b: fmt.Sprint("b", i)} }
	for i := 0; i < 5; i++ {
		pc.admit(key(i), list)
	}
	if st := e.Stats().PairCache; st.Admissions != 4 || st.Entries != 4 || st.Bytes != 4*960 {
		t.Fatalf("after five 960-byte admissions: %+v, want the first 4 admitted", st)
	}
	// One docID (164 bytes) no longer fits; an empty intersection (160)
	// does, and fills the budget exactly.
	pc.admit(key(5), docs[:1])
	pc.admit(key(6), nil)
	for i := 0; i < 7; i++ {
		if _, ok := pc.get(key(i)); ok != (i < 4 || i == 6) {
			t.Errorf("entry %d cached = %v, want %v", i, ok, !ok)
		}
	}
	if st := e.Stats().PairCache; st.Bytes != st.Budget {
		t.Fatalf("%+v: want the budget full", st)
	}
	// Registering a second segment doubles the budget; four more entries
	// fill it, and retiring the segment halves it again under them.
	pc.replace(nil, other)
	for i := 7; i < 12; i++ {
		pc.admit(key(i), list)
	}
	held := e.Stats().PairCache
	if held.Admissions != 9 || held.Bytes != 4000+4*960 {
		t.Fatalf("with the budget doubled: %+v, want 9 admissions holding %d bytes", held, 4000+4*960)
	}
	pc.replace([]*segment.Frozen{other})
	st := e.Stats().PairCache
	if st.Bytes > st.Budget || st.Bytes <= st.Budget-960 || st.Admissions != held.Admissions {
		t.Fatalf("after the budget shrank from %d to %d: %+v, want entries dropped only until the rest fit",
			held.Budget, st.Budget, st)
	}
	checkPairInvariants(t, e, "end")
}

// TestPairCacheHitAllocatesNothing: a lookup allocates nothing, and a query
// whose head pairs hit allocates no more than the same query run with a
// zero budget (the bounds of TestQueryAllocs hold for both).
func TestPairCacheHitAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; the allocation bounds cannot hold")
	}
	const numDocs = 20_000
	const q = "m2 AND m3 AND m5" // its head pair, m5·m3, reaches T in one shard
	allocs := func(e *Engine) float64 {
		for i := 0; i < 5; i++ {
			if _, err := e.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := e.Query(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	cached := buildTestEngine(t, Config{Shards: 1}, numDocs)
	withHits := allocs(cached)
	if st := cached.Stats().PairCache; st.Hits < 50 {
		t.Fatalf("the query did not hit the pair cache: %+v", st)
	}
	zero := tunePairs(buildTestEngine(t, Config{Shards: 1}, numDocs), pairMinLen, true)
	noHits := allocs(zero)
	t.Logf("%.1f allocs/op hitting, %.1f with a zero budget", withHits, noHits)
	if withHits > noHits {
		t.Errorf("a hitting query allocates %.1f times, %.1f more than with a zero budget", withHits, withHits-noHits)
	}
	pc := cached.pairs
	k := pairKey{seg: cached.snapshot()[0].segs[0], a: "m3", b: "m5"}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := pc.get(k); !ok {
			t.Fatal("m3·m5 not cached")
		}
	}); n != 0 {
		t.Errorf("a lookup allocates %.1f times", n)
	}
}

// TestPairCacheExplainAnalyze: explain=analyze prints, per conjunction, how
// many segments served its head pair from the cache, and the kernel runs
// those segments skipped are not counted. The first run admits the pair in
// each shard and renders no hits; the second and third hit.
func TestPairCacheExplainAnalyze(t *testing.T) {
	e := tunePairs(buildTestEngine(t, Config{Shards: 2, TraceSample: 1}, 4000), 64, false)
	const q = "m2 AND m3"
	_, expl, err := e.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(expl, "pair_cache_hits") {
		t.Fatalf("the admitting run rendered cache hits:\n%s", expl)
	}
	if _, err := e.Query(q); err != nil { // a hit
		t.Fatal(err)
	}
	runs := e.Stats().KernelExecs
	_, expl, err = e.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expl, "pair_cache_hits=2") {
		t.Fatalf("two shards hit, but the analyze output does not say so:\n%s", expl)
	}
	after := e.Stats().KernelExecs
	for k, n := range after {
		if n != runs[k] {
			t.Errorf("%s ran %d more times, want 0: a hit runs no kernel for its pair", k, n-runs[k])
		}
	}
}

// TestPairCacheConcurrentRetire races admissions and hits against
// mutations, freezes, size-tiered merges, background compactions and
// Compact, which retire the segments the entries belong to. Every answer
// must be a set during the race; once it quiesces every answer is exact
// and the cache holds only live segments' entries within its budget. Run
// under -race in CI's multi-segment gate.
func TestPairCacheConcurrentRetire(t *testing.T) {
	const numDocs = 3000
	e := tunePairs(buildTestEngine(t, Config{Shards: 2, MaxSegments: 2, CompactThreshold: 200}, numDocs), 16, false)
	queries := []string{"m2 AND m3", "all AND m2 AND m5", "m3 AND m2 AND NOT m7", "(m2 AND m3) OR m11"}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				res, err := e.Query(queries[i%len(queries)])
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if err := sets.Validate(res.Docs); err != nil {
					t.Errorf("Query returned a non-set: %v", err)
					return
				}
			}
		}()
	}
	// The writer re-adds documents with their terms unchanged, so the final
	// answers are the installed corpus's, and retires segments every way a
	// tier does.
	for round := uint32(0); round < 12; round++ {
		for d := round; d < numDocs; d += 9 {
			if err := e.AddDocument(d, testDocTerms(d)); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		switch round % 3 {
		case 0:
			err = e.FreezeActive()
		case 1:
			err = e.MergeSegments()
		default:
			err = e.Compact()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	waitForIdleCompaction(t, e)
	checkPairInvariants(t, e, "quiesced")
	for _, tq := range testQueries {
		runTimes(t, e, numDocs, tq.q, tq.pred, 3)
	}
	checkPairInvariants(t, e, "end")
	if st := e.Stats().PairCache; st.Hits == 0 || st.Admissions == 0 {
		t.Fatalf("the race never hit the pair cache: %+v", st)
	}
}
