package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fastintersect/internal/sets"
	"fastintersect/internal/xhash"
)

// churnToTier drives an engine and its reference model into a genuinely
// tiered state: an installed base, several frozen segments (forced by
// FreezeActive between mutation batches), tombstones in base and frozen
// segments (deletes + overwrites), and a non-empty active segment.
func churnToTier(t *testing.T, e *Engine, m *refModel, batches int) {
	t.Helper()
	rng := xhash.NewRNG(0x5E6)
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	sample := func() []string {
		n := 1 + int(rng.Intn(3))
		out := make([]string, 0, n)
		for len(out) < n {
			out = append(out, vocab[rng.Intn(len(vocab))])
		}
		return out
	}
	for d := uint32(0); d < 400; d++ {
		m.add(d, sample())
	}
	installRef(t, e, m)
	nextID := uint32(400)
	for batch := 0; batch < batches; batch++ {
		for i := 0; i < 60; i++ {
			switch r := rng.Float64(); {
			case r < 0.5:
				terms := sample()
				if err := e.AddDocument(nextID, terms); err != nil {
					t.Fatal(err)
				}
				m.add(nextID, terms)
				nextID++
			case r < 0.7: // overwrite: tombstones the older copy wherever it lives
				id := uint32(rng.Intn(int(nextID)))
				terms := sample()
				if err := e.AddDocument(id, terms); err != nil {
					t.Fatal(err)
				}
				m.add(id, terms)
			default:
				id := uint32(rng.Intn(int(nextID)))
				if _, err := e.DeleteDocument(id); err != nil {
					t.Fatal(err)
				}
				m.del(id)
			}
		}
		if batch < batches-1 { // leave the last batch in the active segment
			if err := e.FreezeActive(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

var tierQueries = []struct {
	q        string
	pos, neg []string
}{
	{"a", []string{"a"}, nil},
	{"a AND b", []string{"a", "b"}, nil},
	{"c AND d", []string{"c", "d"}, nil},
	{"a OR e", nil, nil}, // checked via scan below
	{"a AND NOT b", []string{"a"}, []string{"b"}},
}

func checkTierQueries(t *testing.T, e *Engine, m *refModel, step string) {
	t.Helper()
	for _, tc := range tierQueries {
		res, err := e.Query(tc.q)
		if err != nil {
			t.Fatalf("%s: Query(%q): %v", step, tc.q, err)
		}
		var want []uint32
		if tc.q == "a OR e" {
			want = sets.Union(m.eval([]string{"a"}, nil), m.eval([]string{"e"}, nil))
		} else {
			want = m.eval(tc.pos, tc.neg)
		}
		if !sets.Equal(res.Docs, want) {
			t.Fatalf("%s: Query(%q) = %d docs, want %d", step, tc.q, len(res.Docs), len(want))
		}
	}
}

// TestMultiSegmentTierMatchesReference forces a 4-deep tier (3+ frozen
// segments plus an active one), checks every query shape against the
// scan-based reference, then runs a size-tiered merge mid-stream and
// re-checks — the merge must be invisible to results, must not bump the
// stats epoch, and must bound the tier. A full compaction then drains the
// tier, also without a stats-epoch bump: it only moves postings.
func TestMultiSegmentTierMatchesReference(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		e := New(Config{Shards: 2, MaxSegments: 2})
		m := newRefModel()
		churnToTier(t, e, m, 5)

		stBefore := e.Stats()
		if stBefore.Delta.Segments < 4 { // 4 freezes × 2 shards, some may be empty
			t.Fatalf("tier not multi-segment: %d frozen segments", stBefore.Delta.Segments)
		}
		if stBefore.SegmentFreezes == 0 {
			t.Fatal("no freezes counted")
		}
		checkTierQueries(t, e, m, "pre-merge")

		if err := e.MergeSegments(); err != nil {
			t.Fatal(err)
		}
		stAfter := e.Stats()
		if stAfter.SegmentMerges == 0 {
			t.Fatal("MergeSegments ran no merge")
		}
		for i, n := range stAfter.ShardSegments {
			if n > 1+2 { // base + MaxSegments
				t.Fatalf("shard %d tier has %d segments after merge, want ≤ 3", i, n)
			}
		}
		if stAfter.StatsEpoch != stBefore.StatsEpoch {
			t.Fatalf("tiered merge bumped the stats epoch %d → %d (only Install and LoadSnapshot do)",
				stBefore.StatsEpoch, stAfter.StatsEpoch)
		}
		if stAfter.CompactionBytes == stBefore.CompactionBytes {
			t.Fatal("merge wrote no bytes to the write-amplification counter")
		}
		checkTierQueries(t, e, m, "post-merge")

		// Full rebuild drains the tier and re-checks once more.
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		final := e.Stats()
		if final.Delta.Docs != 0 || final.Delta.Segments != 0 || final.Delta.Tombstones != 0 {
			t.Fatalf("tier not drained by Compact: %+v", final.Delta)
		}
		if final.StatsEpoch != stAfter.StatsEpoch {
			t.Fatalf("full rebuild bumped the stats epoch %d → %d (only Install and LoadSnapshot do)",
				stAfter.StatsEpoch, final.StatsEpoch)
		}
		if int(final.Docs) != len(m.docs) {
			t.Fatalf("Docs = %d, reference holds %d", final.Docs, len(m.docs))
		}
		checkTierQueries(t, e, m, "post-rebuild")
	})
}

// TestFreezeIsCheap pins the map-move freeze: freezing must not copy
// posting lists (the frozen segment serves the same backing arrays) and
// must not count compaction bytes.
func TestFreezeIsCheap(t *testing.T) {
	e := New(Config{Shards: 1})
	b := e.NewBuilder()
	if err := b.Add(0, []string{"seed"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	for d := uint32(1); d <= 100; d++ {
		if err := e.AddDocument(d, []string{"hot"}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.snapshot()[0]
	s.mu.RLock()
	before := s.active.Postings("hot")
	s.mu.RUnlock()
	if err := e.FreezeActive(); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	after := s.segs[len(s.segs)-1].List("hot").Docs()
	s.mu.RUnlock()
	if len(after) != 100 || &after[0] != &before[0] {
		t.Fatal("freeze copied the posting list")
	}
	if st := e.Stats(); st.CompactionBytes != 0 {
		t.Fatalf("freeze counted %d compaction bytes, want 0", st.CompactionBytes)
	}
}

// TestTieredWriteAmplification replays one fixed add/delete stream through
// two engines: the tiered lifecycle (CompactThreshold T and MaxSegments 2,
// so size-tiered merges run and its write amplification is real merge
// work) and a baseline with background
// compaction off that calls Compact — a full merge of every segment — each
// time T × shards postings have been ingested. Write amplification is
// CompactionBytes over the 4 bytes per posting the adds ingested. The
// tiered engine must freeze, the baseline must compact, the tiered write
// amplification must be strictly lower, and once both quiesce every query
// must return the same documents from both, equal to the model's.
func TestTieredWriteAmplification(t *testing.T) {
	const shards, threshold = 2, 100
	t.Run("raw", func(t *testing.T) {
		rng := xhash.NewRNG(0x5E65)
		vocab := []string{"a", "b", "c", "d", "e"}
		sample := func() []string {
			out := []string{vocab[rng.Intn(len(vocab))]}
			for _, term := range vocab {
				if term != out[0] && rng.Float64() < 0.25 {
					out = append(out, term)
				}
			}
			return out
		}
		m := newRefModel()
		for d := uint32(0); d < 2000; d++ {
			m.add(d, sample())
		}
		tiered := New(Config{Shards: shards, CompactThreshold: threshold, MaxSegments: 2})
		baseline := New(Config{Shards: shards})
		installRef(t, tiered, m)
		installRef(t, baseline, m)

		ingested, sinceCompact := 0, 0
		nextID := uint32(2000)
		for i := 0; i < 1500; i++ {
			if rng.Float64() < 0.25 {
				id := uint32(rng.Intn(int(nextID)))
				for _, e := range []*Engine{tiered, baseline} {
					if _, err := e.DeleteDocument(id); err != nil {
						t.Fatal(err)
					}
				}
				m.del(id)
				continue
			}
			terms := sample()
			for _, e := range []*Engine{tiered, baseline} {
				if err := e.AddDocument(nextID, terms); err != nil {
					t.Fatal(err)
				}
			}
			m.add(nextID, terms)
			nextID++
			ingested += 4 * len(terms)
			if sinceCompact += len(terms); sinceCompact >= threshold*shards {
				if err := baseline.Compact(); err != nil {
					t.Fatal(err)
				}
				sinceCompact = 0
			}
		}
		waitForIdleCompaction(t, tiered)
		waitForIdleCompaction(t, baseline)

		ts, bs := tiered.Stats(), baseline.Stats()
		tAmp := float64(ts.CompactionBytes) / float64(ingested)
		bAmp := float64(bs.CompactionBytes) / float64(ingested)
		t.Logf("write amplification tiered %.2f (%d freezes, %d merges), baseline %.2f (%d compactions)",
			tAmp, ts.SegmentFreezes, ts.SegmentMerges, bAmp, bs.Compactions)
		if ts.SegmentFreezes == 0 {
			t.Error("tiered engine never froze a segment")
		}
		if bs.Compactions == 0 {
			t.Error("baseline never compacted; the comparison is vacuous")
		}
		if tAmp >= bAmp {
			t.Errorf("tiered write amplification %.2f is not strictly below the baseline's %.2f", tAmp, bAmp)
		}
		for _, tc := range lifecycleQueries {
			want := m.match(tc.pred)
			for name, e := range map[string]*Engine{"tiered": tiered, "baseline": baseline} {
				res, err := e.Query(tc.q)
				if err != nil {
					t.Fatalf("%s: Query(%q): %v", name, tc.q, err)
				}
				if !sets.Equal(res.Docs, want) {
					t.Errorf("%s: Query(%q) = %d docs, want %d", name, tc.q, len(res.Docs), len(want))
				}
			}
		}
	})
}

// TestSnapshotRoundTrip is the serialize→restart→parity acceptance test: a
// multi-segment engine saved to disk and loaded into a FRESH engine must
// answer every query identically, preserve the tier shape (frozen and active
// segments restored without a rebuild), and keep accepting mutations.
func TestSnapshotRoundTrip(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		cfg := Config{Shards: 2, MaxSegments: 3}
		e := New(cfg)
		m := newRefModel()
		churnToTier(t, e, m, 4)
		checkTierQueries(t, e, m, "pre-save")
		stBefore := e.Stats()

		dir := filepath.Join(t.TempDir(), "snap")
		if SnapshotExists(dir) {
			t.Fatal("SnapshotExists before anything was saved")
		}
		if err := e.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		if !SnapshotExists(dir) {
			t.Fatal("SnapshotExists = false after SaveSnapshot")
		}

		// The "restart": a brand-new engine, same config.
		e2 := New(cfg)
		if err := e2.LoadSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		stAfter := e2.Stats()
		if stAfter.Docs != stBefore.Docs {
			t.Fatalf("restored Docs = %d, want %d", stAfter.Docs, stBefore.Docs)
		}
		if fmt.Sprint(stAfter.ShardSegments) != fmt.Sprint(stBefore.ShardSegments) {
			t.Fatalf("restored tier shape %v, want %v", stAfter.ShardSegments, stBefore.ShardSegments)
		}
		if stAfter.Delta.Docs != stBefore.Delta.Docs || stAfter.Delta.Postings != stBefore.Delta.Postings ||
			stAfter.Delta.Tombstones != stBefore.Delta.Tombstones {
			t.Fatalf("restored mutable tier %+v, want %+v", stAfter.Delta, stBefore.Delta)
		}
		checkTierQueries(t, e2, m, "post-load")

		// The restored engine is fully live: mutate and re-check.
		if err := e2.AddDocument(900_000, []string{"a", "fresh-post-load"}); err != nil {
			t.Fatal(err)
		}
		m.add(900_000, []string{"a", "fresh-post-load"})
		checkTierQueries(t, e2, m, "post-load-mutation")
		if err := e2.Compact(); err != nil {
			t.Fatal(err)
		}
		checkTierQueries(t, e2, m, "post-load-compaction")
	})
}

// TestSaveSnapshotConcurrent saves one multi-segment engine into one
// directory from several goroutines at once. Every save must succeed, the
// directory must hold only the snapshot's own files afterwards, and it must
// load into a fresh engine that answers as the source does.
func TestSaveSnapshotConcurrent(t *testing.T) {
	cfg := Config{Shards: 2, MaxSegments: 3}
	e := New(cfg)
	m := newRefModel()
	churnToTier(t, e, m, 4)
	dir := filepath.Join(t.TempDir(), "snap")
	const savers, rounds = 4, 8
	var wg sync.WaitGroup
	for range savers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if err := e.SaveSnapshot(dir); err != nil {
					t.Errorf("SaveSnapshot: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range entries {
		names = append(names, de.Name())
	}
	if want := []string{manifestName, shardFile(0), shardFile(1)}; !slices.Equal(names, want) {
		t.Fatalf("snapshot directory holds %v, want %v", names, want)
	}
	e2 := New(cfg)
	if err := e2.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	checkTierQueries(t, e2, m, "post-load")
}

// TestSnapshotRejectsMismatch pins the manifest and header validation: a
// snapshot is an image of a specific partitioning, and loading it into a
// differently configured engine must fail loudly, not mis-route documents.
// A storage name or storage byte outside the two a v1 snapshot may carry
// is rejected too, even under a valid checksum.
func TestSnapshotRejectsMismatch(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2}, 200)
	dir := t.TempDir()
	if err := e.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := New(Config{Shards: 3}).LoadSnapshot(dir); err == nil {
		t.Fatal("LoadSnapshot accepted a shard-count mismatch")
	}
	if err := New(Config{Shards: 2}).LoadSnapshot(t.TempDir()); err == nil {
		t.Fatal("LoadSnapshot accepted a directory with no manifest")
	}

	// Each rejection runs on a fresh copy of the saved snapshot with one
	// thing altered.
	altered := func(alter func(dir string)) string {
		t.Helper()
		cp := t.TempDir()
		for _, name := range []string{manifestName, shardFile(0), shardFile(1)} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cp, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		alter(cp)
		return cp
	}
	mmap := altered(func(cp string) {
		man, err := json.Marshal(snapManifest{Version: snapVersion, Shards: 2, Storage: "mmap"})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, manifestName), man, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if err := New(Config{Shards: 2}).LoadSnapshot(mmap); err == nil {
		t.Fatal(`LoadSnapshot accepted a manifest storage of "mmap"`)
	}
	byte2 := altered(func(cp string) {
		path := filepath.Join(cp, shardFile(0))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, shardFileBytes(2, data[7:len(data)-4]), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if err := New(Config{Shards: 2}).LoadSnapshot(byte2); err == nil {
		t.Fatal("LoadSnapshot accepted a shard header storage byte of 2")
	}
}

// TestChurnMultiSegmentConcurrent is the race acceptance test for the
// tiered lifecycle: queries race against mutations, background freezes,
// size-tiered merges (MaxSegments=2 keeps merges constant) and snapshot
// saves. Results are checked for internal sanity while racing; after the
// churn quiesces, a saved snapshot loaded into a fresh engine and a full
// compaction must both agree with the final engine exactly. Run under -race
// in CI ("churn smoke" + the multi-segment gate).
func TestChurnMultiSegmentConcurrent(t *testing.T) {
	const maxDoc = 3000
	t.Run("raw", func(t *testing.T) {
		e := New(Config{Shards: 2, CacheSize: 16, CompactThreshold: 96, MaxSegments: 2})
		b := e.NewBuilder()
		docTerms := func(d uint32) []string {
			terms := []string{"all"}
			if d%2 == 0 {
				terms = append(terms, "even")
			}
			if d%5 == 0 {
				terms = append(terms, "fifth")
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
		queries := []string{"all AND even", "even AND fifth", "all AND NOT even", "all OR even"}
		snapDir := filepath.Join(t.TempDir(), "snap")
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := uint32(next.Add(1)) - 1
					if i >= 4000 {
						return
					}
					switch {
					case i%4 == 0:
						d := maxDoc/2 + i/4
						if err := e.AddDocument(d, docTerms(d)); err != nil {
							t.Errorf("AddDocument(%d): %v", d, err)
							return
						}
					case i%16 == 1:
						if _, err := e.DeleteDocument(i % (maxDoc / 2)); err != nil {
							t.Errorf("DeleteDocument: %v", err)
							return
						}
					case i%512 == 2: // snapshot saves race the tier too
						if err := e.SaveSnapshot(snapDir); err != nil {
							t.Errorf("SaveSnapshot: %v", err)
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
		st := e.Stats()
		if st.SegmentFreezes == 0 || st.SegmentMerges == 0 {
			t.Fatalf("churn exercised no tier lifecycle: freezes=%d merges=%d",
				st.SegmentFreezes, st.SegmentMerges)
		}
		// Quiesced: the deterministic churn outcome is checkable exactly.
		// Adds covered docs maxDoc/2 .. maxDoc/2+999 exactly once; deletes
		// hit seed doc i % (maxDoc/2) for every tick i ≡ 1 (mod 16).
		deleted := map[uint32]bool{}
		for i := uint32(1); i < 4000; i += 16 {
			deleted[i%(maxDoc/2)] = true
		}
		refFor := func(pred func(d uint32) bool) []uint32 {
			return refEval(maxDoc/2+1000, func(d uint32) bool { return pred(d) && !deleted[d] })
		}
		check := func(tag string, eng *Engine) {
			t.Helper()
			for _, tc := range []struct {
				q    string
				pred func(d uint32) bool
			}{
				{"all AND even", func(d uint32) bool { return d%2 == 0 }},
				{"even AND fifth", func(d uint32) bool { return d%10 == 0 }},
				{"all AND NOT even", func(d uint32) bool { return d%2 != 0 }},
			} {
				res, err := eng.Query(tc.q)
				if err != nil {
					t.Fatal(err)
				}
				if want := refFor(tc.pred); !sets.Equal(res.Docs, want) {
					t.Fatalf("%s: Query(%q) = %d docs, want %d", tag, tc.q, len(res.Docs), len(want))
				}
			}
		}
		check("quiesced", e)
		// Serialize → restart → parity on the quiesced state.
		if err := e.SaveSnapshot(snapDir); err != nil {
			t.Fatal(err)
		}
		e2 := New(Config{Shards: 2, MaxSegments: 2})
		if err := e2.LoadSnapshot(snapDir); err != nil {
			t.Fatal(err)
		}
		check("restored", e2)
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		check("compacted", e)
	})
}
