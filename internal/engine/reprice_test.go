package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"fastintersect/internal/compress"
	"fastintersect/internal/invindex"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// TestPlansRepriceAfterCompaction is the regression test for the stats-epoch
// bug: compaction can re-encode a shard's lists (a sparse term going dense
// flips from a gap code to bitseg), but before the epoch existed nothing
// invalidated memoized plans, so a hot query kept its stale shapes and
// decode decisions forever. The sequence below drives exactly that
// transition and pins that the swap forces a re-plan.
func TestPlansRepriceAfterCompaction(t *testing.T) {
	const numDocs = 8192
	e := New(Config{Shards: 1, Storage: invindex.StorageCompressed}) // CacheSize 0: every query reaches the planner
	b := e.NewBuilder()
	// Sparse phase: "hot"/"warm" on every 64th doc — a density the encoder
	// gives a gap code.
	for d := uint32(0); d < numDocs; d += 64 {
		if err := b.Add(d, []string{"hot", "warm"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	base := func() *segment.Frozen { return largestSeg(e, 0) }
	if enc, ok := encodingOf(base(), "hot"); !ok || enc == compress.EncBitseg {
		t.Fatalf("sparse phase encoding = %v, %v; want a non-bitseg encoding", enc, ok)
	}

	const q = "hot AND warm"
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if h, m := e.met.planHits.Value(), e.met.planMisses.Value(); h != 1 || m != 1 {
		t.Fatalf("after two queries: plan hits=%d misses=%d, want 1/1", h, m)
	}

	// Dense phase: fill in every remaining doc, then compact so the delta
	// folds into a fresh base and the lists re-encode.
	for d := uint32(0); d < numDocs; d++ {
		if d%64 == 0 {
			continue
		}
		if err := e.AddDocument(d, []string{"hot", "warm"}); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := e.Stats().StatsEpoch
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.StatsEpoch <= epochBefore {
		t.Fatalf("stats epoch did not advance across compaction: %d -> %d", epochBefore, st.StatsEpoch)
	}
	if enc, ok := encodingOf(base(), "hot"); !ok || enc != compress.EncBitseg {
		t.Fatalf("dense phase encoding = %v, %v; want EncBitseg (compaction re-encoded the list)", enc, ok)
	}

	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.met.planMisses.Value() != 2 {
		t.Fatalf("plan misses = %d after the swap, want 2 (stale plan must be rebuilt)", e.met.planMisses.Value())
	}
	if len(res.Docs) != numDocs {
		t.Fatalf("post-compaction result has %d docs, want %d", len(res.Docs), numDocs)
	}
	// The rebuilt plan is memoized against the new epoch like any other.
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if e.met.planHits.Value() != 2 {
		t.Fatalf("plan hits = %d, want 2 (rebuilt plan re-memoized)", e.met.planHits.Value())
	}
}

// TestPlanCacheInvalidatedByInstall pins the other representation-change
// path: installing a rebuilt index must also force re-planning.
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

// TestChurnBitsegCompaction races queries against mutations and compaction
// swaps on shards whose lists are dense enough to live in the bitseg
// encoding, so the word-parallel kernels run concurrently with base swaps
// that rebuild the very bitmaps they read. Documents are added over
// contiguous IDs to keep the density up; every returned result must be a
// strictly sorted set. Run under -race in CI ("churn smoke").
func TestChurnBitsegCompaction(t *testing.T) {
	const maxDoc = 6000
	e := New(Config{Shards: 2, CacheSize: 16, Storage: invindex.StorageCompressed, CompactThreshold: 128})
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
	if _, ok := e.Stats().Postings.Encodings[compress.EncBitseg.String()]; !ok {
		t.Fatal("seed corpus produced no bitseg-encoded lists; the churn would not cover the bitmap path")
	}
	queries := []string{"all AND even", "even AND third", "all AND even AND NOT third", "all AND even AND third"}
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
	if _, ok := st.Postings.Encodings[compress.EncBitseg.String()]; !ok {
		t.Fatalf("post-churn bases hold no bitseg lists: %+v", st.Postings.Encodings)
	}
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
}

// encodingOf reports the encoding a term's base list is stored under.
func encodingOf(f *segment.Frozen, term string) (compress.Encoding, bool) {
	s := f.List(term)
	if s == nil {
		return 0, false
	}
	return s.Encoding(), true
}

// largestSeg returns the segment holding the most postings in shard i —
// the installed or fully compacted one.
func largestSeg(e *Engine, i int) *segment.Frozen {
	s := e.snapshot()[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs[s.largestLocked()]
}
