package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"fastintersect/internal/sets"
)

// TestPlanCacheInvalidatedByInstall pins the plan cache's invalidation:
// installing a rebuilt index must force re-planning.
func TestPlanCacheInvalidatedByInstall(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2}, 4000)
	const q = "m2 AND m3"
	for i := 0; i < 2; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	misses := e.met.planMisses.Value()
	b := e.NewBuilder()
	if err := b.Add(1, []string{"m2", "m3"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := e.met.planMisses.Value(); got != misses+1 {
		t.Fatalf("plan misses = %d after Install, want %d", got, misses+1)
	}
}

// TestPlansIgnoreTraffic pins that serving queries never changes a plan:
// with every query traced and the result cache off, so that each one runs
// its plan, the Explain text of every test query reads the same after
// 5,000 queries as before them.
func TestPlansIgnoreTraffic(t *testing.T) {
	const numDocs = 20_000
	e := buildTestEngine(t, Config{Shards: 2, TraceSample: 1, CacheSize: 0}, numDocs)
	explain := func() []string {
		out := make([]string, len(testQueries))
		for i, tq := range testQueries {
			_, expl, err := e.Explain(tq.q)
			if (err != nil) != (tq.pred == nil) {
				t.Fatalf("Explain(%q): %v", tq.q, err)
			}
			out[i] = expl
		}
		return out
	}
	before := explain()
	for served := 0; served < 5000; {
		for _, tq := range testQueries {
			if tq.pred == nil {
				continue
			}
			if _, err := e.Query(tq.q); err != nil {
				t.Fatalf("Query(%q): %v", tq.q, err)
			}
			served++
		}
	}
	for i, after := range explain() {
		if after != before[i] {
			t.Errorf("plan for %q moved with traffic:\nbefore:\n%s\nafter:\n%s", testQueries[i].q, before[i], after)
		}
	}
}

// TestChurnBitsegCompaction races queries against mutations and compaction
// swaps on shards whose lists are dense enough for the planner to run the
// bitmap kernel (BitsegAnd over the lists' lazily attached bitseg forms),
// so the word-parallel kernels run concurrently with swaps that replace the
// very lists and bitmaps they read. Every query is traced, and BitsegAnd
// must run both before the churn and on the compacted segments after it.
// Documents are added over contiguous IDs to keep the density up; every
// returned result must be a strictly sorted set. Run under -race in CI
// ("churn smoke").
func TestChurnBitsegCompaction(t *testing.T) {
	const maxDoc = 6000
	e := New(Config{Shards: 2, CacheSize: 16, CompactThreshold: 128, TraceSample: 1})
	b := e.NewBuilder()
	docTerms := func(d uint32) []string {
		terms := []string{"all"}
		if d%2 == 0 {
			terms = append(terms, "even")
		}
		if d%3 == 0 {
			terms = append(terms, "third")
		}
		return terms
	}
	for d := uint32(0); d < maxDoc/2; d++ {
		if err := b.Add(d, docTerms(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	queries := []string{"all AND even", "even AND third", "all AND even AND NOT third", "all AND even AND third"}
	for _, q := range queries {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().KernelExecs["BitsegAnd"] == 0 {
		t.Fatal("the seed corpus ran no BitsegAnd; the churn would not cover the bitmap path")
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := uint32(next.Add(1)) - 1
				if i >= 3000 {
					return
				}
				switch {
				case i%4 == 0: // grow the dense prefix
					d := maxDoc/2 + i/4
					if err := e.AddDocument(d, docTerms(d)); err != nil {
						t.Errorf("AddDocument(%d): %v", d, err)
						return
					}
				case i%16 == 1: // punch holes that compaction folds back out
					if _, err := e.DeleteDocument(i % (maxDoc / 2)); err != nil {
						t.Errorf("DeleteDocument: %v", err)
						return
					}
				default:
					res, err := e.Query(queries[i%uint32(len(queries))])
					if err != nil {
						t.Errorf("Query: %v", err)
						return
					}
					if err := sets.Validate(res.Docs); err != nil {
						t.Errorf("Query returned a non-set: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	waitForIdleCompaction(t, e)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction ran despite threshold")
	}
	bitsegRuns := st.KernelExecs["BitsegAnd"]
	// Quiesced: results must now match first principles exactly. The churn
	// deleted exactly the seed docs ≡ 1 (mod 16) and added docs 3000..3749.
	deleted := func(d uint32) bool { return d < maxDoc/2 && d%16 == 1 }
	for _, tc := range []struct {
		q    string
		pred func(d uint32) bool
	}{
		{"all AND even", func(d uint32) bool { return d%2 == 0 }},
		{"even AND third AND NOT all", func(d uint32) bool { return false }},
		{"all AND even AND third", func(d uint32) bool { return d%6 == 0 }},
	} {
		want := refEval(maxDoc/2+3000/4, func(d uint32) bool { return tc.pred(d) && !deleted(d) })
		res, err := e.Query(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !sets.Equal(res.Docs, want) {
			t.Fatalf("quiesced Query(%q) = %d docs, want %d", tc.q, len(res.Docs), len(want))
		}
	}
	if e.Stats().KernelExecs["BitsegAnd"] == bitsegRuns {
		t.Fatal("no BitsegAnd ran on the compacted segments")
	}
}
