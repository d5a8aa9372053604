package engine

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
	"fastintersect/internal/xhash"
)

// refModel is the first-principles mutable corpus the segmented engine is
// checked against: a plain map of live documents evaluated by scanning.
type refModel struct {
	docs map[uint32]map[string]bool
}

func newRefModel() *refModel { return &refModel{docs: map[uint32]map[string]bool{}} }

func (m *refModel) add(id uint32, terms []string) {
	set := map[string]bool{}
	for _, t := range terms {
		if t != "" {
			set[t] = true
		}
	}
	m.docs[id] = set
}

func (m *refModel) del(id uint32) { delete(m.docs, id) }

// eval answers a conjunction of positive terms with optional negated ones.
func (m *refModel) eval(pos, neg []string) []uint32 {
	var out []uint32
	for id, terms := range m.docs {
		ok := true
		for _, t := range pos {
			if !terms[t] {
				ok = false
				break
			}
		}
		for _, t := range neg {
			if terms[t] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	sets.SortU32(out)
	return out
}

func installRef(t *testing.T, e *Engine, m *refModel) {
	t.Helper()
	b := e.NewBuilder()
	for id, terms := range m.docs {
		list := make([]string, 0, len(terms))
		for term := range terms {
			list = append(list, term)
		}
		if err := b.Add(id, list); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
}

// TestAddDocumentVisibleWithoutRebuild is the headline acceptance test: a
// document added via AddDocument answers queries immediately; a deleted one
// disappears, including from previously cached results; re-adding a deleted
// document resurrects it; updating a document drops its stale terms.
func TestAddDocumentVisibleWithoutRebuild(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("raw-%dshard", shards), func(t *testing.T) {
			e := New(Config{Shards: shards, CacheSize: 32})
			m := newRefModel()
			for d := uint32(0); d < 500; d++ {
				terms := []string{"all"}
				if d%2 == 0 {
					terms = append(terms, "even")
				}
				m.add(d, terms)
			}
			installRef(t, e, m)

			// Warm the cache with the queries we will re-check.
			for _, q := range []string{"even", "all AND even", "all AND NOT even", "fresh"} {
				if _, err := e.Query(q); err != nil {
					t.Fatal(err)
				}
			}

			check := func(q string, pos, neg []string) {
				t.Helper()
				res, err := e.Query(q)
				if err != nil {
					t.Fatalf("Query(%q): %v", q, err)
				}
				if want := m.eval(pos, neg); !sets.Equal(res.Docs, want) {
					t.Fatalf("Query(%q) = %d docs %v, want %d docs %v",
						q, len(res.Docs), head(res.Docs), len(want), head(want))
				}
			}

			// Add a brand-new document: visible without a rebuild, and
			// the warmed cache entries must not be served stale.
			if err := e.AddDocument(1000, []string{"all", "even", "fresh"}); err != nil {
				t.Fatal(err)
			}
			m.add(1000, []string{"all", "even", "fresh"})
			check("fresh", []string{"fresh"}, nil)
			check("even", []string{"even"}, nil)
			check("all AND even", []string{"all", "even"}, nil)

			// Delete a base document: it disappears, including from the
			// cached "even" result.
			if was, err := e.DeleteDocument(42); err != nil || !was {
				t.Fatalf("DeleteDocument(42) = %v, %v", was, err)
			}
			m.del(42)
			check("even", []string{"even"}, nil)
			check("all AND NOT even", []string{"all"}, []string{"even"})

			// Delete the delta document too.
			if was, err := e.DeleteDocument(1000); err != nil || !was {
				t.Fatalf("DeleteDocument(1000) = %v, %v", was, err)
			}
			m.del(1000)
			check("fresh", []string{"fresh"}, nil)

			// Re-add a deleted base document with DIFFERENT terms: the
			// stale term must not match, the new one must.
			if err := e.AddDocument(42, []string{"all", "odd-now"}); err != nil {
				t.Fatal(err)
			}
			m.add(42, []string{"all", "odd-now"})
			check("even", []string{"even"}, nil)
			check("odd-now", []string{"odd-now"}, nil)
			check("all", []string{"all"}, nil)

			// Deleting a never-indexed document reports false.
			if was, err := e.DeleteDocument(99999); err != nil || was {
				t.Fatalf("DeleteDocument(unknown) = %v, %v", was, err)
			}
		})
	}
}

// TestAddDocumentNoTerms pins ErrNoTerms: a term list that is empty after
// dedup must be rejected rather than create an unreachable "live" document
// (which would silently drop out of the doc count at the next compaction).
func TestAddDocumentNoTerms(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2}, 100)
	before := e.Stats()
	for _, terms := range [][]string{nil, {}, {""}, {"", ""}} {
		if err := e.AddDocument(7, terms); err != ErrNoTerms {
			t.Fatalf("AddDocument(%q) err = %v, want ErrNoTerms", terms, err)
		}
	}
	after := e.Stats()
	if after.Docs != before.Docs || after.Mutations != 0 || after.Generation != before.Generation {
		t.Fatalf("rejected adds changed state: %+v → %+v", before, after)
	}
}

// TestMutateBeforeInstall pins the ErrNotBuilt contract of the mutation API.
func TestMutateBeforeInstall(t *testing.T) {
	e := New(Config{Shards: 2})
	if err := e.AddDocument(1, []string{"a"}); err != ErrNotBuilt {
		t.Fatalf("AddDocument err = %v", err)
	}
	if _, err := e.DeleteDocument(1); err != ErrNotBuilt {
		t.Fatalf("DeleteDocument err = %v", err)
	}
	if err := e.Compact(); err != ErrNotBuilt {
		t.Fatalf("Compact err = %v", err)
	}
}

// TestChurnMatchesReference interleaves adds, deletes and queries and checks
// every query against the scan-based reference — with a compaction forced
// mid-stream so results are validated across the base swap as well.
func TestChurnMatchesReference(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		e := New(Config{Shards: 3, CacheSize: 64})
		m := newRefModel()
		rng := xhash.NewRNG(0xC0DE)
		vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		sampleTerms := func() []string {
			n := 1 + int(rng.Intn(4))
			out := make([]string, 0, n)
			for len(out) < n {
				out = append(out, vocab[rng.Intn(len(vocab))])
			}
			return out
		}
		for d := uint32(0); d < 800; d++ {
			m.add(d, sampleTerms())
		}
		installRef(t, e, m)

		queries := []struct {
			q        string
			pos, neg []string
		}{
			{"a", []string{"a"}, nil},
			{"a AND b", []string{"a", "b"}, nil},
			{"c AND d AND e", []string{"c", "d", "e"}, nil},
			{"a AND NOT b", []string{"a"}, []string{"b"}},
			{"f AND NOT g AND NOT h", []string{"f"}, []string{"g", "h"}},
		}
		checkAll := func(step string) {
			t.Helper()
			for _, tc := range queries {
				res, err := e.Query(tc.q)
				if err != nil {
					t.Fatalf("%s: Query(%q): %v", step, tc.q, err)
				}
				if want := m.eval(tc.pos, tc.neg); !sets.Equal(res.Docs, want) {
					t.Fatalf("%s: Query(%q) = %d docs, want %d", step, tc.q, len(res.Docs), len(want))
				}
			}
		}

		nextID := uint32(800)
		for step := 0; step < 600; step++ {
			switch r := rng.Float64(); {
			case r < 0.40: // add a new document
				terms := sampleTerms()
				if err := e.AddDocument(nextID, terms); err != nil {
					t.Fatal(err)
				}
				m.add(nextID, terms)
				nextID++
			case r < 0.55: // update an existing document
				id := uint32(rng.Intn(int(nextID)))
				terms := sampleTerms()
				if err := e.AddDocument(id, terms); err != nil {
					t.Fatal(err)
				}
				m.add(id, terms)
			case r < 0.75: // delete (possibly already gone)
				id := uint32(rng.Intn(int(nextID)))
				_, inRef := m.docs[id]
				was, err := e.DeleteDocument(id)
				if err != nil {
					t.Fatal(err)
				}
				if was != inRef {
					t.Fatalf("DeleteDocument(%d) visible=%v, reference says %v", id, was, inRef)
				}
				m.del(id)
			default:
				checkAll(fmt.Sprintf("step %d", step))
			}
			if step == 300 {
				if err := e.Compact(); err != nil {
					t.Fatalf("mid-stream Compact: %v", err)
				}
				checkAll("post-compaction")
				st := e.Stats()
				if st.Compactions == 0 {
					t.Fatal("Compact did not run")
				}
			}
		}
		checkAll("final")

		// Compact everything away and re-check: the folded base must
		// answer identically with empty deltas and no tombstones.
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.Delta.Docs != 0 || st.Delta.Postings != 0 || st.Delta.Tombstones != 0 {
			t.Fatalf("after full compaction: delta = %+v", st.Delta)
		}
		if int(st.Docs) != len(m.docs) {
			t.Fatalf("Docs = %d, reference holds %d live docs", st.Docs, len(m.docs))
		}
		checkAll("post-final-compaction")
	})
}

// TestAutoCompaction checks the CompactThreshold trigger: enough mutations
// must eventually fold the deltas into the base in the background, without
// changing any result.
func TestAutoCompaction(t *testing.T) {
	e := New(Config{Shards: 2, CompactThreshold: 64})
	m := newRefModel()
	for d := uint32(0); d < 200; d++ {
		m.add(d, []string{"all"})
	}
	installRef(t, e, m)
	for d := uint32(200); d < 1200; d++ {
		if err := e.AddDocument(d, []string{"all", "new"}); err != nil {
			t.Fatal(err)
		}
		m.add(d, []string{"all", "new"})
	}
	// Background compactions are asynchronous; drain them, then fold any
	// remaining tail synchronously.
	waitForIdleCompaction(t, e)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran despite threshold: %+v", st)
	}
	if st.Delta.Docs != 0 || st.Delta.Tombstones != 0 {
		t.Fatalf("deltas not drained: %+v", st.Delta)
	}
	res, err := e.Query("new")
	if err != nil {
		t.Fatal(err)
	}
	if want := m.eval([]string{"new"}, nil); !sets.Equal(res.Docs, want) {
		t.Fatalf("post-compaction result wrong: %d docs, want %d", len(res.Docs), len(want))
	}
	if int(st.Docs) != len(m.docs) {
		t.Fatalf("Docs = %d, want %d", st.Docs, len(m.docs))
	}
}

// waitForIdleCompaction blocks until no shard has an in-flight compaction.
func waitForIdleCompaction(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e.Stats().Delta.CompactingShards == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("compactions did not drain")
}

// TestStatsDocsDistinct is the regression test for the doc over-count bug:
// a document added twice through the builder (e.g. re-fed by a loader) must
// be counted once, through both the Add and AddPosting ingest paths.
func TestStatsDocsDistinct(t *testing.T) {
	e := New(Config{Shards: 2})
	b := e.NewBuilder()
	for _, add := range []struct {
		id    uint32
		terms []string
	}{
		{1, []string{"x"}},
		{2, []string{"x", "y"}},
		{2, []string{"y", "z"}}, // duplicate add of doc 2
		{3, []string{"z"}},
	} {
		if err := b.Add(add.id, add.terms); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Docs != 3 {
		t.Fatalf("Docs = %d, want 3 (distinct)", st.Docs)
	}

	// Term-major ingest: the same three documents via posting lists.
	e2 := New(Config{Shards: 2})
	b2 := e2.NewBuilder()
	for term, ids := range map[string][]uint32{
		"x": {1, 2}, "y": {2}, "z": {2, 3},
	} {
		if err := b2.AddPosting(term, ids); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.Install(b2); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.Docs != 3 {
		t.Fatalf("AddPosting Docs = %d, want 3 (distinct)", st.Docs)
	}
}

// TestInstallShardCountMismatch is the regression test for the silent
// cross-engine install: a builder with a different shard count must be
// rejected, since shardOf routing depends on the installed count.
func TestInstallShardCountMismatch(t *testing.T) {
	e2 := New(Config{Shards: 2})
	e4 := New(Config{Shards: 4})
	b := e2.NewBuilder()
	if err := b.Add(1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := e4.Install(b); err == nil || !strings.Contains(err.Error(), "2-shard builder") {
		t.Fatalf("Install accepted a mismatched builder: err = %v", err)
	}
	if _, err := e4.Query("a"); err != ErrNotBuilt {
		t.Fatalf("mismatched Install left an index behind: %v", err)
	}
}

// TestDeltaTermConcurrentWithAdds is the regression test for a data race:
// a query answered purely from the delta segment used to return an alias of
// the live delta posting list past the shard lock, which a concurrent
// AddDocument could shift in place mid-copy. Queries hammer a delta-only
// term while adds keep inserting smaller docIDs into that same term; run
// under -race (CI churn smoke), and every result must be a valid set.
func TestDeltaTermConcurrentWithAdds(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 1, CacheSize: 0}, 100)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Insert descending docIDs so every add copy-shifts the whole
		// delta-only posting list.
		for id := uint32(100_000); id > 90_000; id-- {
			select {
			case <-done:
				return
			default:
			}
			if err := e.AddDocument(id, []string{"deltaonly"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		res, err := e.Query("deltaonly")
		if err != nil {
			t.Fatal(err)
		}
		if err := sets.Validate(res.Docs); err != nil {
			t.Fatalf("iter %d: corrupted delta result: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}

// TestMergeKeepsMidMergeMutationsExact pins the merge-swap tombstone
// handoff: the merge reads its victims off-lock against tombstone SNAPSHOTS,
// so a delete or overwrite landing between the snapshot and the swap only
// tombstones the victim — the swap must re-apply exactly those post-snapshot
// tombstones to the merged segment, or the merge would resurrect the
// documents.
func TestMergeKeepsMidMergeMutationsExact(t *testing.T) {
	e := New(Config{Shards: 1})
	b := e.NewBuilder()
	if err := b.Add(0, []string{"base"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	// Two frozen segments holding docs 1 and 2.
	for _, id := range []uint32{1, 2} {
		if err := e.AddDocument(id, []string{"a"}); err != nil {
			t.Fatal(err)
		}
		if err := e.FreezeActive(); err != nil {
			t.Fatal(err)
		}
	}
	s := e.snapshot()[0]
	s.mu.Lock()
	s.compacting = true
	victims, snaps := s.pickMergeLocked(1)
	s.mu.Unlock()
	if len(victims) != 2 {
		t.Fatalf("pickMergeLocked chose %d victims, want 2", len(victims))
	}
	// Mid-merge: delete doc 1 and overwrite doc 2 (both live in victims).
	if ok, err := e.DeleteDocument(1); err != nil || !ok {
		t.Fatalf("DeleteDocument(1) = %v, %v", ok, err)
	}
	if err := e.AddDocument(2, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	e.mergeSegments(s, victims, snaps, false)

	s.mu.RLock()
	segs, live := len(s.segs), s.liveLocked()
	s.mu.RUnlock()
	if segs != 2 { // the installed segment + the merged one
		t.Fatalf("tier has %d segments after merge, want 2", segs)
	}
	if live != 2 { // base doc 0 + rewritten doc 2
		t.Fatalf("live = %d after merge, want 2", live)
	}
	res, err := e.Query("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 0 {
		t.Fatalf(`Query("a") = %v, want empty (1 deleted, 2 rewritten mid-merge)`, res.Docs)
	}
	res, err = e.Query("c")
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(res.Docs, []uint32{2}) {
		t.Fatalf(`Query("c") = %v, want [2]`, res.Docs)
	}
}

// TestCompactSkipsNoopShards pins the no-op compaction guard: with an empty
// active segment, an empty frozen tier and no tombstones, Compact must not
// rebuild anything (no compaction counted, no stats-epoch bump — a bump
// would needlessly invalidate every memoized plan).
func TestCompactSkipsNoopShards(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2}, 500)
	before := e.Stats()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Compactions != before.Compactions {
		t.Fatalf("Compact on a clean engine ran %d compactions, want 0",
			after.Compactions-before.Compactions)
	}
	if after.StatsEpoch != before.StatsEpoch {
		t.Fatalf("Compact on a clean engine bumped the stats epoch %d → %d",
			before.StatsEpoch, after.StatsEpoch)
	}
	if after.CompactionBytes != before.CompactionBytes {
		t.Fatalf("Compact on a clean engine wrote %d bytes, want 0",
			after.CompactionBytes-before.CompactionBytes)
	}
	// And once there is real work, Compact does run.
	if err := e.AddDocument(1_000_000, []string{"fresh"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Compactions; got != before.Compactions+1 {
		t.Fatalf("Compactions = %d after one real compaction, want %d", got, before.Compactions+1)
	}
}

// TestMutationAfterInstallLandsInNewShards pins the retired-shard
// handshake: a mutation routed through a shard-set snapshot taken before an
// Install must not land in the discarded shards — Install marks them
// retired before the swap, and lockShard re-snapshots. (A mutation that
// fully applies before the swap is legitimately superseded by the install;
// the bug this guards against is acknowledging one into a shard set that
// will never serve another query.)
func TestMutationAfterInstallLandsInNewShards(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2}, 50)
	old := e.snapshot()
	b := e.NewBuilder()
	for d := uint32(0); d < 50; d++ {
		if err := b.Add(d, []string{"all"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	for i, s := range old {
		s.mu.RLock()
		retired := s.retired
		s.mu.RUnlock()
		if !retired {
			t.Fatalf("old shard %d not retired by Install", i)
		}
	}
	// The mutation path must resolve to the freshly installed shard.
	const id = 4242
	s, err := e.lockShard(id)
	if err != nil {
		t.Fatal(err)
	}
	cur := e.snapshot()
	if s != cur[shardOf(id, len(cur))] {
		t.Fatal("lockShard returned a shard outside the current set")
	}
	s.mu.Unlock()
	if err := e.AddDocument(id, []string{"fresh"}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Contains(res.Docs, id) {
		t.Fatalf("post-install add not visible: %v", res.Docs)
	}
}

// TestEngineConcurrentChurn is the race acceptance test for the mutable
// tier: queries, adds, deletes and compactions all run concurrently against
// one engine. Results are checked for internal sanity (sorted, within the
// docID space); exact result checking under concurrent mutation is
// inherently racy, so full equivalence is covered by the serialized
// TestChurnMatchesReference. Run under -race in CI ("churn smoke").
func TestEngineConcurrentChurn(t *testing.T) {
	const maxDoc = 4000
	t.Run("raw", func(t *testing.T) {
		e := New(Config{Shards: 4, CacheSize: 32, CompactThreshold: 256})
		b := e.NewBuilder()
		for d := uint32(0); d < maxDoc/2; d++ {
			terms := []string{"all"}
			if d%2 == 0 {
				terms = append(terms, "even")
			}
			if d%3 == 0 {
				terms = append(terms, "third")
			}
			if err := b.Add(d, terms); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Install(b); err != nil {
			t.Fatal(err)
		}
		stream := workload.NewReal(workload.RealConfig{
			NumDocs: maxDoc / 2, NumTerms: 64, NumQueries: 32,
			ZipfS: 0.7, TopDFFrac: 0.5, HotFrac: 0.1, HotWeight: 4, Seed: 0xBEEF,
		}).ChurnStream(2000, workload.ChurnConfig{
			AddFrac: 0.3, DeleteFrac: 0.15, MaxDocID: maxDoc, Seed: 0xBEEF,
		})
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(stream) {
						return
					}
					op := stream[i]
					switch op.Kind {
					case workload.ChurnAdd:
						if err := e.AddDocument(op.DocID, op.Terms); err != nil {
							t.Errorf("AddDocument: %v", err)
							return
						}
					case workload.ChurnDelete:
						if _, err := e.DeleteDocument(op.DocID); err != nil {
							t.Errorf("DeleteDocument: %v", err)
							return
						}
					default:
						res, err := e.Query(op.Query)
						if err != nil {
							t.Errorf("Query(%q): %v", op.Query, err)
							return
						}
						if err := sets.Validate(res.Docs); err != nil {
							t.Errorf("Query(%q) returned a non-set: %v", op.Query, err)
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
		if st.Mutations == 0 {
			t.Fatal("no mutations recorded")
		}
		if st.Delta.Docs != 0 || st.Delta.Tombstones != 0 {
			t.Fatalf("deltas not drained: %+v", st.Delta)
		}
	})
}

// lifecycleQueries cover AND, OR and NOT over the lifecycle test's
// vocabulary; each carries its reference predicate over a document's terms.
var lifecycleQueries = []struct {
	q    string
	pred func(has func(string) bool) bool
}{
	{"a", func(has func(string) bool) bool { return has("a") }},
	{"a AND b", func(has func(string) bool) bool { return has("a") && has("b") }},
	{"a OR c", func(has func(string) bool) bool { return has("a") || has("c") }},
	{"a AND NOT b", func(has func(string) bool) bool { return has("a") && !has("b") }},
	{"(a AND b) OR (c AND NOT d)", func(has func(string) bool) bool {
		return (has("a") && has("b")) || (has("c") && !has("d"))
	}},
	{"b AND c AND NOT a AND NOT e", func(has func(string) bool) bool {
		return has("b") && has("c") && !has("a") && !has("e")
	}},
}

// match evaluates a predicate over every live document of the model.
func (m *refModel) match(pred func(has func(string) bool) bool) []uint32 {
	var out []uint32
	for id, terms := range m.docs {
		if pred(func(t string) bool { return terms[t] }) {
			out = append(out, id)
		}
	}
	sets.SortU32(out)
	return out
}

// TestSegmentLifecycleMatchesModel is the model-based test of the tier
// lifecycle: seeded random sequences of adds, overwrites, deletes,
// FreezeActive, MergeSegments, Compact, tombstone-escalation bursts (a low
// CompactThreshold, so deleting installed documents escalates a background
// compaction to a full one) and SaveSnapshot → LoadSnapshot into a fresh
// engine. After every step each query of lifecycleQueries must return the
// model's exact documents and Stats.Docs must equal the model's live count.
// Each shard shape runs twice: with the pair cache's threshold lowered to
// the model's list lengths, so conjunctions hit cached head pairs across
// every step, and with a zero budget, so none is ever cached.
func TestSegmentLifecycleMatchesModel(t *testing.T) {
	for _, shards := range []int{1, 3} {
		cfg := Config{Shards: shards, CacheSize: 16, CompactThreshold: 4, MaxSegments: 2}
		seed := 0x11FE + uint64(shards)
		t.Run(fmt.Sprintf("raw-%dshard", shards), func(t *testing.T) {
			st := runLifecycleModel(t, func() *Engine { return tunePairs(New(cfg), 8, false) }, seed)
			if st.Hits == 0 || st.Admissions == 0 {
				t.Fatalf("the pair cache never served a head pair: %+v", st)
			}
		})
		t.Run(fmt.Sprintf("raw-%dshard-zero-budget", shards), func(t *testing.T) {
			st := runLifecycleModel(t, func() *Engine { return tunePairs(New(cfg), 8, true) }, seed)
			if st.Hits != 0 || st.Admissions != 0 || st.Misses == 0 {
				t.Fatalf("a zero budget cached head pairs, or no pair was eligible: %+v", st)
			}
		})
	}
}

// runLifecycleModel drives one lifecycle sequence over engines from
// newEngine (a snapshot step restores into a fresh one) and returns the
// pair-cache counters summed over them.
func runLifecycleModel(t *testing.T, newEngine func() *Engine, seed uint64) PairCacheStats {
	rng := xhash.NewRNG(seed)
	vocab := []string{"a", "b", "c", "d", "e"}
	sample := func() []string {
		n := 1 + int(rng.Intn(3))
		out := make([]string, 0, n)
		for len(out) < n {
			out = append(out, vocab[rng.Intn(len(vocab))])
		}
		return out
	}
	m := newRefModel()
	for d := uint32(0); d < 300; d++ {
		m.add(d, sample())
	}
	e := newEngine()
	installRef(t, e, m)
	var pairs PairCacheStats
	addPairs := func(st PairCacheStats) {
		pairs.Hits += st.Hits
		pairs.Misses += st.Misses
		pairs.Admissions += st.Admissions
	}
	nextID := uint32(300)
	visible := func() []uint32 { return m.match(func(func(string) bool) bool { return true }) }

	check := func(step int, what string) {
		t.Helper()
		for _, tc := range lifecycleQueries {
			res, err := e.Query(tc.q)
			if err != nil {
				t.Fatalf("step %d (%s): Query(%q): %v", step, what, tc.q, err)
			}
			if want := m.match(tc.pred); !sets.Equal(res.Docs, want) {
				t.Fatalf("step %d (%s): Query(%q) = %d docs %v, want %d docs %v",
					step, what, tc.q, len(res.Docs), head(res.Docs), len(want), head(want))
			}
		}
		if got := e.Stats().Docs; int(got) != len(m.docs) {
			t.Fatalf("step %d (%s): Stats.Docs = %d, model holds %d", step, what, got, len(m.docs))
		}
	}

	escalations, snapshots := 0, 0
	for step := 0; step < 160; step++ {
		var what string
		switch r := rng.Float64(); {
		case r < 0.30:
			what = "add"
			terms := sample()
			if err := e.AddDocument(nextID, terms); err != nil {
				t.Fatal(err)
			}
			m.add(nextID, terms)
			nextID++
		case r < 0.42:
			what = "overwrite"
			id := uint32(rng.Intn(int(nextID)))
			terms := sample()
			if err := e.AddDocument(id, terms); err != nil {
				t.Fatal(err)
			}
			m.add(id, terms)
		case r < 0.60:
			what = "delete"
			id := uint32(rng.Intn(int(nextID)))
			_, inModel := m.docs[id]
			was, err := e.DeleteDocument(id)
			if err != nil {
				t.Fatal(err)
			}
			if was != inModel {
				t.Fatalf("step %d: DeleteDocument(%d) = %v, model says %v", step, id, was, inModel)
			}
			m.del(id)
		case r < 0.70:
			what = "freeze"
			if err := e.FreezeActive(); err != nil {
				t.Fatal(err)
			}
		case r < 0.78:
			what = "merge"
			if err := e.MergeSegments(); err != nil {
				t.Fatal(err)
			}
		case r < 0.84:
			what = "compact"
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
		case r < 0.92:
			// Delete visible documents one at a time, letting each trigger
			// settle, until a background compaction escalates to a full
			// one. The tier is settled first — active segment frozen, tier
			// merged down to MaxSegments — so a delete can trigger no
			// freeze or tiered merge, and the only background compaction it
			// can start is an escalation.
			what = "escalate"
			waitForIdleCompaction(t, e)
			if err := e.FreezeActive(); err != nil {
				t.Fatal(err)
			}
			if err := e.MergeSegments(); err != nil {
				t.Fatal(err)
			}
			compactions := e.Stats().Compactions
			for _, id := range visible() {
				if was, err := e.DeleteDocument(id); err != nil || !was {
					t.Fatalf("step %d: DeleteDocument(%d) = %v, %v", step, id, was, err)
				}
				m.del(id)
				waitForIdleCompaction(t, e)
				if e.Stats().Compactions != compactions {
					escalations++
					break
				}
			}
			checkPairInvariants(t, e, fmt.Sprintf("step %d (%s)", step, what))
			// Refill so later steps keep a corpus to work on.
			for i := 0; i < 60; i++ {
				terms := sample()
				if err := e.AddDocument(nextID, terms); err != nil {
					t.Fatal(err)
				}
				m.add(nextID, terms)
				nextID++
			}
		default:
			what = "snapshot"
			dir := filepath.Join(t.TempDir(), "snap")
			if err := e.SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			waitForIdleCompaction(t, e)
			checkPairInvariants(t, e, fmt.Sprintf("step %d (%s)", step, what))
			fresh := newEngine()
			if err := fresh.LoadSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			addPairs(e.Stats().PairCache)
			e = fresh
			snapshots++
		}
		check(step, what)
	}
	waitForIdleCompaction(t, e)
	if escalations == 0 || snapshots == 0 {
		t.Fatalf("sequence exercised %d escalations and %d snapshot restarts, want both > 0", escalations, snapshots)
	}
	st := e.Stats()
	if st.SegmentFreezes == 0 {
		t.Fatalf("sequence froze no segment: %+v", st)
	}
	checkPairInvariants(t, e, "end")
	addPairs(st.PairCache)
	return pairs
}
