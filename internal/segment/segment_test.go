package segment

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fastintersect/internal/sets"
)

func TestFreezeMovesPostings(t *testing.T) {
	m := NewMutable()
	m.AddDoc(3, []string{"a", "b"})
	m.AddDoc(1, []string{"a"})
	m.AddDoc(2, []string{"b", "c"})
	if m.NumDocs() != 3 || m.NumPostings() != 5 {
		t.Fatalf("mutable: docs=%d postings=%d, want 3/5", m.NumDocs(), m.NumPostings())
	}
	aList := m.Postings("a")
	f := m.Freeze()
	if m.NumDocs() != 0 || m.NumPostings() != 0 {
		t.Fatalf("mutable not drained by Freeze: docs=%d postings=%d", m.NumDocs(), m.NumPostings())
	}
	if f.NumDocs() != 3 || f.NumPostings() != 5 || f.LiveDocs() != 3 {
		t.Fatalf("frozen: docs=%d postings=%d live=%d, want 3/5/3", f.NumDocs(), f.NumPostings(), f.LiveDocs())
	}
	if !sets.Equal(f.DocIDs(), []uint32{1, 2, 3}) {
		t.Fatalf("frozen docIDs = %v", f.DocIDs())
	}
	// The freeze must move, not copy: same backing array.
	if got := f.List("a").Docs(); len(got) != 2 || &got[0] != &aList[0] {
		t.Fatalf("Freeze copied postings (len=%d, moved=%v)", len(got), len(got) == 2 && &got[0] == &aList[0])
	}
}

func TestAddTombEnforcesSubset(t *testing.T) {
	m := NewMutable()
	m.AddDoc(1, []string{"a"})
	m.AddDoc(5, []string{"a"})
	f := m.Freeze()
	if f.AddTomb(3) {
		t.Fatal("AddTomb accepted a docID the segment does not hold")
	}
	if !f.AddTomb(5) || f.AddTomb(5) {
		t.Fatal("AddTomb: first insert must succeed, repeat must not")
	}
	if f.LiveDocs() != 1 || f.Visible(5) || !f.Visible(1) {
		t.Fatalf("after tombstoning 5: live=%d visible(5)=%v visible(1)=%v", f.LiveDocs(), f.Visible(5), f.Visible(1))
	}
}

// buildFrozen makes a frozen segment from doc → terms pairs.
func buildFrozen(t *testing.T, docs map[uint32][]string) *Frozen {
	t.Helper()
	m := NewMutable()
	for id, terms := range docs {
		m.AddDoc(id, terms)
	}
	return m.Freeze()
}

func TestMergeDropsSnapshotTombs(t *testing.T) {
	a := buildFrozen(t, map[uint32][]string{1: {"x"}, 2: {"x", "y"}})
	b := buildFrozen(t, map[uint32][]string{3: {"y"}, 4: {"z"}})
	a.AddTomb(2) // superseded before the merge was scheduled
	merged := Merge([]*Frozen{a, b}, [][]uint32{sets.Clone(a.Tombs()), nil}, 1)
	if !sets.Equal(merged.DocIDs(), []uint32{1, 3, 4}) {
		t.Fatalf("merged docIDs = %v, want [1 3 4]", merged.DocIDs())
	}
	if got := merged.List("x").Docs(); !sets.Equal(got, []uint32{1}) {
		t.Fatalf(`merged["x"] = %v, want [1] (doc 2 tombstoned at snapshot)`, got)
	}
	if got := merged.List("y").Docs(); !sets.Equal(got, []uint32{3}) {
		t.Fatalf(`merged["y"] = %v, want [3]`, got)
	}
	if merged.NumPostings() != 3 || len(merged.Tombs()) != 0 {
		t.Fatalf("merged postings=%d tombs=%d, want 3/0", merged.NumPostings(), len(merged.Tombs()))
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMutable()
	terms := []string{"alpha", "beta", "gamma", "δ-unicode", ""}
	for id := uint32(0); id < 500; id++ {
		var ts []string
		for _, term := range terms[:4] {
			if rng.Intn(3) == 0 {
				ts = append(ts, term)
			}
		}
		if len(ts) == 0 {
			ts = []string{"alpha"}
		}
		m.AddDoc(id*7, ts)
	}
	f := m.Freeze()
	for id := uint32(0); id < 100; id++ {
		f.AddTomb(id * 21)
	}

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := f.WriteFrozen(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrozen(bufio.NewReader(bytes.NewReader(buf.Bytes())), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != f.NumDocs() || got.NumPostings() != f.NumPostings() || got.LiveDocs() != f.LiveDocs() {
		t.Fatalf("round trip: docs %d→%d postings %d→%d live %d→%d",
			f.NumDocs(), got.NumDocs(), f.NumPostings(), got.NumPostings(), f.LiveDocs(), got.LiveDocs())
	}
	for _, term := range f.Terms() {
		if want, have := f.List(term).Docs(), got.List(term).Docs(); !sets.Equal(have, want) {
			t.Fatalf("term %q: %v → %v", term, want, have)
		}
	}
	if !sets.Equal(got.Tombs(), f.Tombs()) {
		t.Fatalf("tombs: %v → %v", f.Tombs(), got.Tombs())
	}

	// Determinism: a second encode is byte-identical.
	var buf2 bytes.Buffer
	w2 := bufio.NewWriter(&buf2)
	if err := got.WriteFrozen(w2); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestCodecMutableRoundTrip(t *testing.T) {
	m := NewMutable()
	m.AddDoc(10, []string{"a", "b"})
	m.AddDoc(20, []string{"b"})
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := m.WriteMutable(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMutable(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != 2 || got.NumPostings() != 3 {
		t.Fatalf("round trip: docs=%d postings=%d, want 2/3", got.NumDocs(), got.NumPostings())
	}
	// The reverse map must be rebuilt: RemoveDoc has to work.
	if !got.RemoveDoc(10) || got.NumPostings() != 1 || len(got.Postings("a")) != 0 {
		t.Fatalf("reverse map broken after decode: postings=%d a=%v", got.NumPostings(), got.Postings("a"))
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	f := buildFrozen(t, map[uint32][]string{1: {"a"}, 2: {"a", "b"}})
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := f.WriteFrozen(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Truncations at every prefix must error, never panic or mis-decode.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := ReadFrozen(bufio.NewReader(bytes.NewReader(valid[:cut])), 1); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(valid))
		}
	}
}

// BenchmarkReadFrozen times the snapshot load of one segment the size of a
// default fsiserve freeze (-compact 50000): 24 900 terms with Zipf document
// frequencies (df ∝ rank^-0.8, about 51 800 postings) over 14 400 documents
// spread across a 1M docID span, decoded and built as raw lists.
func BenchmarkReadFrozen(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	docs := make([]uint32, 14_400)
	for i := range docs {
		docs[i] = uint32(rng.Intn(1 << 20))
	}
	terms := make(map[string][]uint32, 24_900)
	names := make([]string, 0, 24_900)
	for t := 0; t < 24_900; t++ {
		ps := make([]uint32, max(1, int(1500/math.Pow(float64(t+1), 0.8))))
		for i := range ps {
			ps[i] = docs[rng.Intn(len(docs))]
		}
		name := fmt.Sprintf("t%d", t)
		terms[name] = sets.SortDedup(ps)
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteSection(w, names, func(t string) []uint32 { return terms[t] }, nil); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrozen(bufio.NewReader(bytes.NewReader(buf.Bytes())), 1); err != nil {
			b.Fatal(err)
		}
	}
}
