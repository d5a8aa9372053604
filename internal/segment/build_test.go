package segment

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"fastintersect/internal/sets"
)

func TestBuildSortsAndDedups(t *testing.T) {
	f := Build(map[string][]uint32{"alpha": {3, 1, 3}, "beta": {1, 2, 2}, "none": nil}, 1)
	if terms := f.Terms(); len(terms) != 2 || terms[0] != "alpha" || terms[1] != "beta" {
		t.Fatalf("Terms = %v, want [alpha beta]: a term with no postings builds no list", terms)
	}
	for term, want := range map[string][]uint32{"alpha": {1, 3}, "beta": {1, 2}} {
		l := f.List(term)
		if !sets.Equal(l.Docs(), want) || f.DocFreq(term) != len(want) {
			t.Fatalf("%s = %v, want %v (sorted, deduplicated)", term, l.Docs(), want)
		}
		if cap(l.Docs()) != len(want) || l.Span() != int(want[len(want)-1])+1 {
			t.Fatalf("%s: cap %d span %d for %v", term, cap(l.Docs()), l.Span(), l.Docs())
		}
	}
	if f.NumPostings() != 4 || f.NumTerms() != 2 {
		t.Fatalf("postings=%d terms=%d, want 4/2", f.NumPostings(), f.NumTerms())
	}
}

// TestBuildDocIDsDistinct pins the derived document accounting: a built
// segment's docIDs are the union of its posting lists, so a document that
// arrives under several terms or more than once is counted once.
func TestBuildDocIDsDistinct(t *testing.T) {
	f := Build(map[string][]uint32{"a": {5, 1}, "b": {5, 5}, "c": {5}, "d": {1, 9, 5}}, 1)
	if got := f.DocIDs(); !sets.Equal(got, []uint32{1, 5, 9}) || f.NumDocs() != 3 {
		t.Fatalf("DocIDs = %v (NumDocs %d), want [1 5 9]", got, f.NumDocs())
	}
	empty := Build(map[string][]uint32{}, 1)
	if len(empty.DocIDs()) != 0 || empty.NumDocs() != 0 || empty.NumTerms() != 0 {
		t.Fatalf("empty build: DocIDs=%v terms=%d", empty.DocIDs(), empty.NumTerms())
	}
}

// divisibility returns pending postings where doc d < 500 carries "all"
// and "m<k>" for every k in 2..13 dividing d, in document order.
func divisibility() map[string][]uint32 {
	pending := map[string][]uint32{}
	for d := uint32(0); d < 500; d++ {
		pending["all"] = append(pending["all"], d)
		for k := uint32(2); k <= 13; k++ {
			if d%k == 0 {
				term := fmt.Sprintf("m%d", k)
				pending[term] = append(pending[term], d)
			}
		}
	}
	return pending
}

// TestBuildParallelMatchesSerial checks that the parallel build gives the
// serial build's segment.
func TestBuildParallelMatchesSerial(t *testing.T) {
	serial, parallel := Build(divisibility(), 1), Build(divisibility(), 8)
	if !sets.Equal(serial.DocIDs(), parallel.DocIDs()) || serial.NumPostings() != parallel.NumPostings() {
		t.Fatalf("docs %d/%d postings %d/%d", serial.NumDocs(), parallel.NumDocs(), serial.NumPostings(), parallel.NumPostings())
	}
	if serial.NumTerms() != 13 || parallel.NumTerms() != 13 {
		t.Fatalf("terms = %v / %v", serial.Terms(), parallel.Terms())
	}
	for _, term := range serial.Terms() {
		if a, b := serial.List(term).Docs(), parallel.List(term).Docs(); !sets.Equal(a, b) {
			t.Fatalf("term %q: serial %d docs, parallel %d", term, len(a), len(b))
		}
	}
}

// TestSegmentBitsegLazyAttach races the first Bitseg call on every list of
// a fresh built segment from 8 goroutines: under -race this exercises the
// attach itself, every caller must get a form that decodes to the list,
// and once attached the form is shared.
func TestSegmentBitsegLazyAttach(t *testing.T) {
	const goroutines = 8
	f := Build(divisibility(), 2)
	for _, term := range f.Terms() {
		l := f.List(term)
		start := make(chan struct{})
		wrong := make(chan int, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if got := l.Bitseg().DecodeInto(nil); !sets.Equal(got, l.Docs()) {
					wrong <- len(got)
				}
			}()
		}
		close(start)
		wg.Wait()
		close(wrong)
		for n := range wrong {
			t.Errorf("%s: bitseg form decodes to %d postings, want %d", term, n, len(l.Docs()))
		}
		if l.Bitseg() != l.Bitseg() {
			t.Errorf("%s: bitseg form not attached", term)
		}
	}
}

// TestListHeaderSize pins a frozen list's header at 40 bytes — the slice,
// the span and the bitseg pointer. A segment allocates its headers as one
// array and an index holds one per (term, shard), so every byte added
// multiplies across hundreds of thousands of lists.
func TestListHeaderSize(t *testing.T) {
	if n := unsafe.Sizeof(List{}); n > 40 {
		t.Fatalf("List is %d bytes, want ≤ 40", n)
	}
}
