package engine

import (
	"fmt"
	"testing"

	"fastintersect/internal/sets"
)

// TestQueryCountSemantics pins the count-only contract against the
// materializing path: QueryCount returns the same cardinality Query would
// materialize, never returns docs, and serves result-cache hits (populated
// by a prior materializing query) without re-executing.
func TestQueryCountSemantics(t *testing.T) {
	const numDocs = 10_000
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("raw/shards=%d", shards), func(t *testing.T) {
			e := buildTestEngine(t, Config{Shards: shards, CacheSize: 32}, numDocs)
			for _, tq := range testQueries {
				if tq.pred == nil {
					if _, err := e.QueryCount(tq.q); err == nil {
						t.Fatalf("QueryCount(%q) accepted, want error", tq.q)
					}
					continue
				}
				want := refEval(numDocs, tq.pred)
				// Cold count: executes without materializing.
				c1, err := e.QueryCount(tq.q)
				if err != nil {
					t.Fatalf("QueryCount(%q): %v", tq.q, err)
				}
				if c1.Docs != nil {
					t.Fatalf("QueryCount(%q) materialized %d docs", tq.q, len(c1.Docs))
				}
				if c1.Count != len(want) {
					t.Fatalf("QueryCount(%q) = %d, want %d", tq.q, c1.Count, len(want))
				}
				// (No Cached assertion here: queries that normalize to an
				// earlier canonical form legitimately hit the cache.)
				// Materializing query agrees and fills the result cache.
				r, err := e.Query(tq.q)
				if err != nil {
					t.Fatalf("Query(%q): %v", tq.q, err)
				}
				if !sets.Equal(r.Docs, want) || r.Count != len(want) {
					t.Fatalf("Query(%q) = %d docs (Count=%d), want %d", tq.q, len(r.Docs), r.Count, len(want))
				}
				// Warm count: served from the materialized cache entry.
				c2, err := e.QueryCount(tq.q)
				if err != nil {
					t.Fatalf("warm QueryCount(%q): %v", tq.q, err)
				}
				if !c2.Cached {
					t.Fatalf("QueryCount(%q) missed the cache right after Query populated it", tq.q)
				}
				if c2.Count != len(want) || c2.Docs != nil {
					t.Fatalf("cached QueryCount(%q) = %d docs, Count=%d, want Count=%d and nil docs",
						tq.q, len(c2.Docs), c2.Count, len(want))
				}
			}
		})
	}
}

// TestQueryBatchCount checks the batched count path: per-entry counts match
// the materializing batch, docs are never returned, rejected queries keep
// their per-entry error, and duplicate queries coalesce onto one result.
func TestQueryBatchCount(t *testing.T) {
	const numDocs = 8000
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 8}, numDocs)
	var qs []string
	for _, tq := range testQueries {
		qs = append(qs, tq.q)
	}
	qs = append(qs, "m3 AND m2") // duplicate canonical form, must coalesce

	counts := e.QueryBatchCount(qs)
	full := e.QueryBatch(qs)
	if len(counts) != len(qs) || len(full) != len(qs) {
		t.Fatalf("batch sizes: counts=%d full=%d want %d", len(counts), len(full), len(qs))
	}
	for i, tq := range qs {
		var pred func(uint32) bool
		for _, cand := range testQueries {
			if cand.q == tq {
				pred = cand.pred
				break
			}
		}
		if i == len(qs)-1 {
			pred = func(d uint32) bool { return d%6 == 0 }
		}
		if pred == nil {
			if counts[i].Err == nil {
				t.Fatalf("count batch accepted %q, want error", tq)
			}
			continue
		}
		if counts[i].Err != nil {
			t.Fatalf("count batch %q: %v", tq, counts[i].Err)
		}
		want := refEval(numDocs, pred)
		if got := counts[i].Result.Count; got != len(want) {
			t.Fatalf("count batch %q = %d, want %d", tq, got, len(want))
		}
		if counts[i].Result.Docs != nil {
			t.Fatalf("count batch %q materialized docs", tq)
		}
		if fc := full[i].Result.Count; fc != len(want) {
			t.Fatalf("full batch %q Count = %d, want %d", tq, fc, len(want))
		}
	}
}

// TestBatchMemoMapRebuild runs one wide batch — 72 distinct terms, each
// conjoined with "all" — twice through the query path: one pooled
// execution context serves each whole batch and is recycled in between,
// and the second round must answer exactly like the first.
func TestBatchMemoMapRebuild(t *testing.T) {
	const terms = 72
	const numDocs = 2000
	e := New(Config{Shards: 1})
	b := e.NewBuilder()
	for d := uint32(0); d < numDocs; d++ {
		var ts []string
		ts = append(ts, "all")
		for k := 0; k < terms; k++ {
			if d%uint32(k+2) == 0 {
				ts = append(ts, fmt.Sprintf("t%d", k))
			}
		}
		if err := b.Add(d, ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	var qs []string
	for k := 0; k < terms; k++ {
		// Each query touches "all" plus one distinct term.
		qs = append(qs, fmt.Sprintf("all AND t%d", k))
	}
	for round := 0; round < 2; round++ {
		for i, br := range e.QueryBatch(qs) {
			if br.Err != nil {
				t.Fatalf("round %d: %q: %v", round, qs[i], br.Err)
			}
			want := refEval(numDocs, func(d uint32) bool { return d%uint32(i+2) == 0 })
			if !sets.Equal(br.Result.Docs, want) {
				t.Fatalf("round %d: %q = %d docs, want %d", round, qs[i], len(br.Result.Docs), len(want))
			}
		}
	}
}
