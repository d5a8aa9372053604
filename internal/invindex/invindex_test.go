package invindex

import (
	"errors"
	"testing"

	"fastintersect/internal/sets"
)

func buildTestIndex(t *testing.T) *Index {
	t.Helper()
	ix := New()
	docs := []struct {
		id    uint32
		terms []string
	}{
		{1, []string{"fast", "set", "intersection"}},
		{2, []string{"set", "theory"}},
		{3, []string{"fast", "set", "union"}},
		{4, []string{"fast", "cars"}},
		{5, []string{"intersection", "set", "fast"}},
	}
	for _, d := range docs {
		if err := ix.Add(d.id, d.terms); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestIndexQuery(t *testing.T) {
	ix := buildTestIndex(t)
	got, err := ix.Query("fast", "set")
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(got, []uint32{1, 3, 5}) {
		t.Fatalf(`fast ∧ set = %v`, got)
	}
	got, err = ix.Query("fast", "set", "intersection")
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(got, []uint32{1, 5}) {
		t.Fatalf(`three-term query = %v`, got)
	}
	got, err = ix.Query("set")
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(got, []uint32{1, 2, 3, 5}) {
		t.Fatalf(`single-term query = %v`, got)
	}
}

func TestIndexErrors(t *testing.T) {
	ix := New()
	if _, err := ix.Query("a"); err == nil {
		t.Fatal("query before build accepted")
	}
	_ = ix.Add(1, []string{"a"})
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err == nil {
		t.Fatal("double build accepted")
	}
	if err := ix.Add(2, []string{"b"}); err == nil {
		t.Fatal("add after build accepted")
	}
	if _, err := ix.Query(); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := ix.Query("nope"); !errors.Is(err, ErrUnknownTerm) {
		t.Fatalf("unknown term error = %v", err)
	}
}

func TestIndexDuplicateTermsInDoc(t *testing.T) {
	ix := New()
	_ = ix.Add(7, []string{"x", "x", "", "y"})
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if df := ix.DocFreq("x"); df != 1 {
		t.Fatalf("DocFreq(x) = %d", df)
	}
	if df := ix.DocFreq(""); df != 0 {
		t.Fatal("empty term indexed")
	}
}

func TestIndexAddPostingAndTerms(t *testing.T) {
	ix := New()
	_ = ix.AddPosting("alpha", []uint32{3, 1, 3})
	_ = ix.AddPosting("beta", []uint32{1, 2})
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if err := ix.AddPosting("gamma", nil); err == nil {
		t.Fatal("AddPosting after build accepted")
	}
	terms := ix.Terms()
	if len(terms) != 2 || terms[0] != "alpha" || terms[1] != "beta" {
		t.Fatalf("Terms = %v", terms)
	}
	if !sets.Equal(ix.Stored("alpha").Decode(), []uint32{1, 3}) {
		t.Fatal("posting not deduplicated/sorted")
	}
	got, err := ix.Query("alpha", "beta")
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(got, []uint32{1}) {
		t.Fatalf("query = %v", got)
	}
}

func TestIndexAddPostingAfterBuild(t *testing.T) {
	ix := buildTestIndex(t)
	if err := ix.AddPosting("late", []uint32{1, 2}); err == nil {
		t.Fatal("AddPosting after Build accepted")
	}
}

func TestIndexDocsAndTermCount(t *testing.T) {
	ix := New()
	if ix.Docs() != 0 || ix.TermCount() != 0 {
		t.Fatalf("empty index: docs=%d terms=%d", ix.Docs(), ix.TermCount())
	}
	_ = ix.Add(1, []string{"a", "b"})
	_ = ix.Add(2, []string{"b"})
	if ix.Docs() != 2 || ix.TermCount() != 2 {
		t.Fatalf("pending: docs=%d terms=%d", ix.Docs(), ix.TermCount())
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if ix.Docs() != 2 || ix.TermCount() != 2 {
		t.Fatalf("built: docs=%d terms=%d", ix.Docs(), ix.TermCount())
	}
}

// TestBuildParallelMatchesSerial checks the shard-friendly build path
// produces an identical index.
func TestBuildParallelMatchesSerial(t *testing.T) {
	mk := func() *Index {
		ix := New()
		for d := uint32(0); d < 500; d++ {
			terms := []string{"all"}
			if d%2 == 0 {
				terms = append(terms, "even")
			}
			if d%3 == 0 {
				terms = append(terms, "triple")
			}
			if err := ix.Add(d, terms); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	serial, parallel := mk(), mk()
	if err := serial.Build(); err != nil {
		t.Fatal(err)
	}
	if err := parallel.BuildParallel(8); err != nil {
		t.Fatal(err)
	}
	for _, term := range []string{"all", "even", "triple"} {
		a, err := serial.Query(term)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.Query(term)
		if err != nil {
			t.Fatal(err)
		}
		if !sets.Equal(a, b) {
			t.Fatalf("term %q: serial %d docs, parallel %d", term, len(a), len(b))
		}
	}
	got, err := parallel.Query("even", "triple")
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Query("even", "triple")
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(got, want) {
		t.Fatal("conjunctive query differs between build paths")
	}
}

func TestBuildParallelErrors(t *testing.T) {
	ix := New()
	_ = ix.Add(1, []string{"a"})
	if err := ix.BuildParallel(4); err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildParallel(4); err == nil {
		t.Fatal("double BuildParallel accepted")
	}
}

// TestDocIDsDistinct pins the derived distinct-document accounting: Docs()
// and DocIDs() after Build must reflect the union of the posting lists, so
// duplicate Add calls and term-major AddPosting input are counted once.
func TestDocIDsDistinct(t *testing.T) {
	ix := New()
	_ = ix.Add(5, []string{"a", "b"})
	_ = ix.Add(5, []string{"b", "c"}) // duplicate add of doc 5
	_ = ix.Add(1, []string{"a"})
	_ = ix.AddPosting("d", []uint32{1, 9, 5})
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if got := ix.DocIDs(); !sets.Equal(got, []uint32{1, 5, 9}) {
		t.Fatalf("DocIDs = %v, want [1 5 9]", got)
	}
	if ix.Docs() != 3 {
		t.Fatalf("Docs = %d, want 3", ix.Docs())
	}

	empty := New()
	if err := empty.Build(); err != nil {
		t.Fatal(err)
	}
	if len(empty.DocIDs()) != 0 || empty.Docs() != 0 {
		t.Fatalf("empty built index: DocIDs=%v Docs=%d", empty.DocIDs(), empty.Docs())
	}
}
