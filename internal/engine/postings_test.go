package engine

import (
	"path/filepath"
	"slices"
	"testing"

	"fastintersect/internal/segment"
)

func TestStatsPostings(t *testing.T) {
	const numDocs = 5000
	rs := buildTestEngine(t, Config{Shards: 2}, numDocs).Stats()
	want := uint64(0)
	for d := uint32(0); d < numDocs; d++ {
		want += uint64(len(testDocTerms(d)))
	}
	if rs.Postings.Total != want || rs.Postings.StoredBytes != 4*want {
		t.Fatalf("postings accounting = %+v, want %d postings in %d bytes", rs.Postings, want, 4*want)
	}
}

// TestRawListsExactSize pins what makes Stats.Postings.StoredBytes (4 B per
// posting) the lists' retained heap: every list a build produces keeps
// cap == len — in an installed segment, a tiered-merge output, a
// full-compaction output and a loaded snapshot segment. Freezes are exempt:
// a freeze adopts the active segment's append-grown arrays by design. Each
// list is read through List.Docs, which returns the slice itself.
func TestRawListsExactSize(t *testing.T) {
	const numDocs = 3000
	frozen := func(eng *Engine) []*segment.Frozen {
		var out []*segment.Frozen
		for _, s := range eng.snapshot() {
			s.mu.RLock()
			out = append(out, s.segs...)
			s.mu.RUnlock()
		}
		return out
	}
	check := func(what string, segs []*segment.Frozen) {
		t.Helper()
		if len(segs) == 0 {
			t.Fatalf("%s: no segment to check", what)
		}
		for _, f := range segs {
			for _, term := range f.Terms() {
				if l := f.List(term).Docs(); cap(l) != len(l) {
					t.Fatalf("%s: term %q keeps capacity %d for %d postings", what, term, cap(l), len(l))
				}
			}
		}
	}
	e := buildTestEngine(t, Config{Shards: 2, MaxSegments: 1}, numDocs)
	check("installed", frozen(e))

	// Three frozen segments beside the installed one exceed MaxSegments 1,
	// so MergeSegments merges the smallest; only its outputs are new.
	addTier(t, e, numDocs, 40)
	if err := e.FreezeActive(); err != nil {
		t.Fatal(err)
	}
	before := frozen(e)
	if err := e.MergeSegments(); err != nil {
		t.Fatal(err)
	}
	var merged []*segment.Frozen
	for _, f := range frozen(e) {
		if !slices.Contains(before, f) {
			merged = append(merged, f)
		}
	}
	check("tiered merge", merged)

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	check("full compaction", frozen(e))

	addTier(t, e, numDocs, 40)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := e.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded := New(Config{Shards: 2})
	if err := loaded.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	check("snapshot load", frozen(loaded))
}
