package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

// buildTestEngine indexes numDocs documents where doc d carries term "m<k>"
// iff d is divisible by k (k in 2..13), plus "all" on every doc and "rare"
// on multiples of 97. Divisibility makes reference results trivial to
// derive independently.
func buildTestEngine(t testing.TB, cfg Config, numDocs uint32) *Engine {
	t.Helper()
	e := New(cfg)
	b := e.NewBuilder()
	for d := uint32(0); d < numDocs; d++ {
		if err := b.Add(d, testDocTerms(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	return e
}

// testDocTerms is the test corpus: document d carries "all", "m<k>" for
// every k in 2..13 dividing d, and "rare" when 97 divides d.
func testDocTerms(d uint32) []string {
	terms := []string{"all"}
	for k := uint32(2); k <= 13; k++ {
		if d%k == 0 {
			terms = append(terms, fmt.Sprintf("m%d", k))
		}
	}
	if d%97 == 0 {
		terms = append(terms, "rare")
	}
	return terms
}

// addTier re-adds every stride-th document (its terms unchanged) in three
// batches, freezing the first two: the shard tiers end up with two frozen
// segments and a non-empty active one while every query answer stays put.
func addTier(t testing.TB, e *Engine, numDocs, stride uint32) {
	t.Helper()
	for batch := uint32(0); batch < 3; batch++ {
		for d := batch; d < numDocs; d += stride {
			if err := e.AddDocument(d, testDocTerms(d)); err != nil {
				t.Fatal(err)
			}
		}
		if batch < 2 {
			if err := e.FreezeActive(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// refEval answers the same queries from first principles.
func refEval(numDocs uint32, pred func(d uint32) bool) []uint32 {
	var out []uint32
	for d := uint32(0); d < numDocs; d++ {
		if pred(d) {
			out = append(out, d)
		}
	}
	return out
}

var testQueries = []struct {
	q    string
	pred func(d uint32) bool
}{
	{"m2", func(d uint32) bool { return d%2 == 0 }},
	{"m2 AND m3", func(d uint32) bool { return d%6 == 0 }},
	{"m3 AND m2", func(d uint32) bool { return d%6 == 0 }},
	{"m2 m3 m5", func(d uint32) bool { return d%30 == 0 }},
	{"m2 OR m3", func(d uint32) bool { return d%2 == 0 || d%3 == 0 }},
	{"(m2 OR m3) AND m5", func(d uint32) bool { return (d%2 == 0 || d%3 == 0) && d%5 == 0 }},
	{"m2 AND NOT m3", func(d uint32) bool { return d%2 == 0 && d%3 != 0 }},
	{"all AND NOT m2 AND NOT m3", func(d uint32) bool { return d%2 != 0 && d%3 != 0 }},
	{"rare AND m2", func(d uint32) bool { return d%97 == 0 && d%2 == 0 }},
	{"m11 AND m13", func(d uint32) bool { return d%143 == 0 }},
	{"m2 AND (m3 OR NOT m5) AND m7", nil}, // rejected: NOT under OR
	{"nosuchterm", func(d uint32) bool { return false }},
	{"m2 AND nosuchterm", func(d uint32) bool { return false }},
	{"nosuchterm OR m11", func(d uint32) bool { return d%11 == 0 }},
	{"m2 AND NOT nosuchterm", func(d uint32) bool { return d%2 == 0 }},
}

func checkQuery(t *testing.T, e *Engine, numDocs uint32, q string, pred func(d uint32) bool) {
	t.Helper()
	res, err := e.Query(q)
	if pred == nil {
		if err == nil {
			t.Fatalf("Query(%q) accepted, want error", q)
		}
		return
	}
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	want := refEval(numDocs, pred)
	if !sets.Equal(res.Docs, want) {
		t.Fatalf("Query(%q) = %d docs, want %d (got %v..., want %v...)",
			q, len(res.Docs), len(want), head(res.Docs), head(want))
	}
}

func head(s []uint32) []uint32 {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

func TestEngineQueryCorrectness(t *testing.T) {
	const numDocs = 5000
	for _, shards := range []int{1, 4, 7} {
		e := buildTestEngine(t, Config{Shards: shards, CacheSize: 32}, numDocs)
		for _, tc := range testQueries {
			checkQuery(t, e, numDocs, tc.q, tc.pred)
		}
	}
}

func TestEngineShardCountInvariance(t *testing.T) {
	const numDocs = 3000
	e1 := buildTestEngine(t, Config{Shards: 1}, numDocs)
	e5 := buildTestEngine(t, Config{Shards: 5}, numDocs)
	for _, tc := range testQueries {
		if tc.pred == nil {
			continue
		}
		r1, err := e1.Query(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		r5, err := e5.Query(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !sets.Equal(r1.Docs, r5.Docs) {
			t.Fatalf("shard-count changed result of %q: %d vs %d docs", tc.q, len(r1.Docs), len(r5.Docs))
		}
	}
}

// rawKernels are the kernels the engine's chooser picks among over raw
// (non-empty) lists.
var rawKernels = []plan.Kernel{plan.KernelGallop, plan.KernelBitsegAnd, plan.KernelBitProbe}

// forceKernel returns an engine configuration under which the raw-list
// chooser picks k wherever it is applicable, by pricing the rest out
// through their anchors.
func forceKernel(k plan.Kernel) Config {
	c := plan.DefaultCosts()
	if k != plan.KernelGallop {
		c.GallopProbe = 1e9
	}
	if k != plan.KernelBitProbe {
		c.BitProbeElem = 1e9
	}
	if k != plan.KernelBitsegAnd {
		c.BitsegWord = 1e9
	}
	return Config{Shards: 4, TraceSample: 1, PlanCosts: c}
}

// TestEngineEveryKernelAgrees forces each raw-list kernel through the
// serving path — over the base and over frozen and active segments, whose
// active lists and intermediate results (span 0) fall back from BitsegAnd
// to the cheaper of the others — and holds every answer to the reference.
func TestEngineEveryKernelAgrees(t *testing.T) {
	const numDocs = 2000
	for _, k := range rawKernels {
		e := buildTestEngine(t, forceKernel(k), numDocs)
		for _, tq := range testQueries {
			checkQuery(t, e, numDocs, tq.q, tq.pred)
		}
		// Checked on the base-only tier, where every operand is a frozen
		// list and so every kernel is applicable.
		if got := e.Stats().KernelExecs; got[k.String()] == 0 {
			t.Errorf("forced %v, but it never ran (kernel executions %v)", k, got)
		}
		addTier(t, e, numDocs, 7)
		for _, tq := range testQueries {
			checkQuery(t, e, numDocs, tq.q, tq.pred)
		}
	}
}

func TestEngineCacheHitsAndNormalization(t *testing.T) {
	const numDocs = 1000
	e := buildTestEngine(t, Config{Shards: 4, CacheSize: 16}, numDocs)
	r1, err := e.Query("m2 AND m3")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first query reported cached")
	}
	// Different spelling, same canonical query: must hit.
	r2, err := e.Query("m3 and (m2)")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("normalized-equal query missed the cache")
	}
	if r1.Normalized != r2.Normalized {
		t.Fatalf("keys differ: %q vs %q", r1.Normalized, r2.Normalized)
	}
	if !sets.Equal(r1.Docs, r2.Docs) {
		t.Fatal("cached result differs")
	}
	st := e.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if st.Queries != 2 {
		t.Fatalf("queries = %d", st.Queries)
	}
}

func TestEngineRebuildInvalidatesCache(t *testing.T) {
	e := New(Config{Shards: 3, CacheSize: 16})
	b := e.NewBuilder()
	for d := uint32(0); d < 100; d++ {
		if err := b.Add(d, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Docs) != 100 {
		t.Fatalf("got %d docs", len(r.Docs))
	}
	// Rebuild with half the docs; the cached "x" result must not survive.
	b2 := e.NewBuilder()
	for d := uint32(0); d < 50; d++ {
		if err := b2.Add(d, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b2); err != nil {
		t.Fatal(err)
	}
	r, err = e.Query("x")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached || len(r.Docs) != 50 {
		t.Fatalf("after rebuild: cached=%v docs=%d, want fresh 50", r.Cached, len(r.Docs))
	}
	if st := e.Stats(); st.Rebuilds != 2 || st.Cache.Stale != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineAddPostingMatchesAdd(t *testing.T) {
	const numDocs = 2000
	eDoc := buildTestEngine(t, Config{Shards: 4}, numDocs)
	ePost := New(Config{Shards: 4})
	b := ePost.NewBuilder()
	post := map[string][]uint32{}
	for d := uint32(0); d < numDocs; d++ {
		post["all"] = append(post["all"], d)
		for k := uint32(2); k <= 13; k++ {
			if d%k == 0 {
				term := fmt.Sprintf("m%d", k)
				post[term] = append(post[term], d)
			}
		}
		if d%97 == 0 {
			post["rare"] = append(post["rare"], d)
		}
	}
	for term, ids := range post {
		if err := b.AddPosting(term, ids); err != nil {
			t.Fatal(err)
		}
	}
	if err := ePost.Install(b); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"m2 AND m3", "m5 OR m7", "all AND NOT m2", "rare"} {
		r1, err := eDoc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ePost.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sets.Equal(r1.Docs, r2.Docs) {
			t.Fatalf("AddPosting build differs on %q", q)
		}
	}
}

func TestEngineQueryBeforeInstall(t *testing.T) {
	e := New(Config{Shards: 2})
	if _, err := e.Query("a"); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("err = %v, want ErrNotBuilt", err)
	}
}

// TestEngineConcurrentQueries hammers a shared sharded engine from many
// goroutines; run under -race this is the concurrency acceptance test.
func TestEngineConcurrentQueries(t *testing.T) {
	const numDocs = 4000
	e := buildTestEngine(t, Config{Shards: 5, Workers: 4, CacheSize: 8}, numDocs)
	wants := make(map[string][]uint32)
	for _, tc := range testQueries {
		if tc.pred != nil {
			wants[tc.q] = refEval(numDocs, tc.pred)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				tc := testQueries[(g+i)%len(testQueries)]
				res, err := e.Query(tc.q)
				if tc.pred == nil {
					if err == nil {
						t.Errorf("Query(%q) accepted", tc.q)
					}
					continue
				}
				if err != nil {
					t.Errorf("Query(%q): %v", tc.q, err)
					return
				}
				if !sets.Equal(res.Docs, wants[tc.q]) {
					t.Errorf("Query(%q) wrong under concurrency", tc.q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.Stats(); st.Queries != 16*40 {
		t.Fatalf("queries = %d, want %d", st.Queries, 16*40)
	}
}

// TestEngineConcurrentRebuild races queries against Install swaps.
func TestEngineConcurrentRebuild(t *testing.T) {
	const numDocs = 500
	e := buildTestEngine(t, Config{Shards: 4, CacheSize: 8}, numDocs)
	want := refEval(numDocs, func(d uint32) bool { return d%6 == 0 })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			b := e.NewBuilder()
			for d := uint32(0); d < numDocs; d++ {
				terms := []string{"all"}
				if d%2 == 0 {
					terms = append(terms, "m2")
				}
				if d%3 == 0 {
					terms = append(terms, "m3")
				}
				b.Add(d, terms)
			}
			if err := e.Install(b); err != nil {
				t.Errorf("Install: %v", err)
				return
			}
		}
		close(stop)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.Query("m2 AND m3")
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if !sets.Equal(res.Docs, want) {
					t.Errorf("rebuild changed result: %d docs", len(res.Docs))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuilderDocsAndTerms pins how documents arrive through the builder:
// empty terms are skipped, a term repeated within a document or a document
// added twice yields one posting, and documents are counted once however
// they arrived (Add, a repeated Add, AddPosting).
func TestBuilderDocsAndTerms(t *testing.T) {
	e := New(Config{})
	b := e.NewBuilder()
	_ = b.Add(7, []string{"x", "x", "", "y"})
	_ = b.Add(5, []string{"a", "b"})
	_ = b.Add(5, []string{"b", "c"})
	_ = b.AddPosting("d", []uint32{9, 7, 5, 9})
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Docs != 3 || st.Terms != 6 || st.Postings.Total != 8 {
		t.Fatalf("docs=%d terms=%d postings=%d, want 3/6/8", st.Docs, st.Terms, st.Postings.Total)
	}
	for q, want := range map[string]int{"x": 1, "b": 1, "d": 3, "x AND d": 1} {
		if res, err := e.QueryCount(q); err != nil || res.Count != want {
			t.Fatalf("%s: count %+v, %v; want %d", q, res, err, want)
		}
	}
}

const misuseDocs = 600

// installMisuseIndex installs testDocTerms for misuseDocs documents through
// one builder over the given number of shards and returns the engine and
// the now-installed builder.
func installMisuseIndex(t *testing.T, shards int) (*Engine, *Builder) {
	t.Helper()
	e := New(Config{Shards: shards})
	b := e.NewBuilder()
	for d := uint32(0); d < misuseDocs; d++ {
		if err := b.Add(d, testDocTerms(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	return e, b
}

// checkLateUnindexed fails the test unless the index still holds exactly
// the installed documents, once, and no "late" term.
func checkLateUnindexed(t *testing.T, e *Engine, shards int) {
	t.Helper()
	if st := e.Stats(); st.Docs != misuseDocs || st.Rebuilds != 1 {
		t.Fatalf("shards=%d: docs=%d rebuilds=%d, want %d/1", shards, st.Docs, st.Rebuilds, misuseDocs)
	}
	if res, err := e.Query("late"); err != nil || res.Count != 0 {
		t.Fatalf("shards=%d: late term = %+v, %v; want no match", shards, res, err)
	}
}

// TestBuilderInstallTwice pins the build-once contract of Install: a second
// Install of one builder, serial or sharded, fails and leaves the installed
// index answering as before, with its generation and rebuild count unchanged.
func TestBuilderInstallTwice(t *testing.T) {
	for _, shards := range []int{1, 3} {
		e, b := installMisuseIndex(t, shards)
		before, err := e.Query("m2 AND m3 AND NOT m5")
		if err != nil {
			t.Fatal(err)
		}
		gen := e.Generation()
		if err := e.Install(b); err == nil {
			t.Fatalf("shards=%d: second Install of one builder accepted", shards)
		}
		after, err := e.Query("m2 AND m3 AND NOT m5")
		if err != nil {
			t.Fatal(err)
		}
		if !sets.Equal(after.Docs, before.Docs) || len(after.Docs) == 0 || e.Generation() != gen {
			t.Fatalf("shards=%d: after the failed Install: %d docs (was %d), generation %d (was %d)",
				shards, len(after.Docs), len(before.Docs), e.Generation(), gen)
		}
		checkLateUnindexed(t, e, shards)
	}
}

// TestBuilderAddAfterInstall pins the engine's misuse errors around one
// build: a query before any Install fails with ErrNotBuilt, Add after
// Install fails and indexes nothing, and an empty query fails with
// plan.ErrEmptyQuery while an unknown term matches nothing.
func TestBuilderAddAfterInstall(t *testing.T) {
	for _, shards := range []int{1, 3} {
		if _, err := New(Config{Shards: shards}).Query("m2"); !errors.Is(err, ErrNotBuilt) {
			t.Fatalf("shards=%d: query before Install: err = %v, want ErrNotBuilt", shards, err)
		}
		e, b := installMisuseIndex(t, shards)
		if err := b.Add(misuseDocs, []string{"late"}); err == nil {
			t.Fatalf("shards=%d: Add after Install accepted", shards)
		}
		checkLateUnindexed(t, e, shards)
		if _, err := e.Query(""); !errors.Is(err, plan.ErrEmptyQuery) {
			t.Fatalf("shards=%d: empty query: err = %v, want plan.ErrEmptyQuery", shards, err)
		}
		if res, err := e.Query("nope"); err != nil || res.Count != 0 {
			t.Fatalf("shards=%d: unknown term = %+v, %v; want no match", shards, res, err)
		}
	}
}

// TestBuilderAddPostingAfterInstall pins that AddPosting after Install
// fails and indexes nothing.
func TestBuilderAddPostingAfterInstall(t *testing.T) {
	for _, shards := range []int{1, 3} {
		e, b := installMisuseIndex(t, shards)
		if err := b.AddPosting("late", []uint32{1, 2, 3, 4}); err == nil {
			t.Fatalf("shards=%d: AddPosting after Install accepted", shards)
		}
		checkLateUnindexed(t, e, shards)
	}
}
