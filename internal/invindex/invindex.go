// Package invindex is a small in-memory inverted index — the substrate the
// paper's motivating applications (enterprise/web search, conjunctive
// predicate evaluation) sit on. Documents are added as (docID, terms)
// pairs; Build freezes the index, storing every posting list as an EncRaw
// compress.Stored: an exact-size sorted []uint32 intersected by Merge,
// Gallop or a lazily attached bitseg form. MemStats reports the exact
// payload footprint.
//
// BuildParallel is also the engine's one list builder: every frozen
// segment that is not a freeze — an installed shard, a merge output, a
// loaded snapshot section — is built here and adopted by
// segment.FromIndex, which takes the index's Lists and DocIDs without a
// copy.
package invindex

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fastintersect/internal/compress"
	"fastintersect/internal/sets"
)

// Index maps terms to stored posting lists.
type Index struct {
	pending map[string][]uint32
	stored  map[string]*compress.Stored
	frozen  bool
	docs    int
	docIDs  []uint32 // sorted distinct docIDs across all postings (set by Build)
}

// New creates an empty index.
func New() *Index {
	return &Index{pending: map[string][]uint32{}}
}

// Add records a document. Duplicate terms within a document are fine.
// Add must not be called after Build.
func (ix *Index) Add(docID uint32, terms []string) error {
	if ix.frozen {
		return errors.New("invindex: Add after Build")
	}
	seen := map[string]bool{}
	for _, t := range terms {
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		ix.pending[t] = append(ix.pending[t], docID)
	}
	ix.docs++
	return nil
}

// AddPosting records a whole posting list for a term (builder-style input,
// used when the caller already has term → docIDs data).
func (ix *Index) AddPosting(term string, docIDs []uint32) error {
	if ix.frozen {
		return errors.New("invindex: AddPosting after Build")
	}
	ix.pending[term] = append(ix.pending[term], docIDs...)
	return nil
}

// Build freezes the index: posting lists are sorted, deduplicated and
// stored as exact-size EncRaw lists. After Build the index is read-only and
// safe for concurrent queries.
func (ix *Index) Build() error {
	return ix.BuildParallel(1)
}

// BuildParallel is Build with posting-list construction spread across workers
// goroutines (0 = GOMAXPROCS). This is the shard-friendly build path: a
// sharded engine builds many independent indexes concurrently, and each
// can additionally parallelize over its own terms.
func (ix *Index) BuildParallel(workers int) error {
	if ix.frozen {
		return errors.New("invindex: Build called twice")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	terms := make([]string, 0, len(ix.pending))
	for t := range ix.pending {
		terms = append(terms, t)
	}
	// A fixed set of workers claims terms by index; each term's list lands
	// in its own slot, so the workers share nothing but the counter.
	lists := make([][]uint32, len(terms))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(terms)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(terms); i = int(next.Add(1)) - 1 {
				// A stored list retains its slice: keep one exact-size copy
				// rather than the append-grown pending array.
				set := sets.SortDedup(ix.pending[terms[i]])
				lists[i] = append(make([]uint32, 0, len(set)), set...)
			}
		}()
	}
	wg.Wait()
	// Distinct documents = the union of every posting list. This is what
	// makes doc counts exact regardless of how documents arrived (Add,
	// duplicate Add, AddPosting). Tens of thousands of lists over one docID
	// span are dense by UnionKInto's rule, so this is one bitmap pass —
	// O(postings + span/64), whatever the term count — and docIDs comes out
	// exactly sized.
	ix.docIDs = sets.UnionKInto(nil, lists...)
	// The lists are strictly increasing by construction; their headers are
	// allocated together, as a segment freeze allocates its own.
	hdrs := make([]compress.Stored, len(terms))
	ix.stored = make(map[string]*compress.Stored, len(terms))
	for i, term := range terms {
		hdrs[i].SetRaw(lists[i])
		ix.stored[term] = &hdrs[i]
	}
	ix.frozen = true
	ix.pending = nil
	return nil
}

// Terms returns the indexed terms, sorted.
func (ix *Index) Terms() []string {
	var out []string
	if ix.frozen {
		for t := range ix.stored {
			out = append(out, t)
		}
	} else {
		for t := range ix.pending {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Stored returns a term's posting list, or nil if the term is unknown or
// the index is not built.
func (ix *Index) Stored(term string) *compress.Stored {
	return ix.stored[term]
}

// Docs returns the number of distinct indexed documents. After Build it is
// exact — the size of the union of every posting list — no matter how
// documents arrived (Add, duplicate Add, or term-major AddPosting). Before
// Build it counts Add calls, so duplicate adds and AddPosting input are not
// reflected until the index is built.
func (ix *Index) Docs() int {
	if ix.frozen {
		return len(ix.docIDs)
	}
	return ix.docs
}

// DocIDs returns the sorted distinct docIDs appearing in any posting list,
// or nil before Build. The slice is owned by the index; callers must not
// modify it. segment.FromIndex adopts it as a frozen segment's document
// set, against which the engine records tombstones.
func (ix *Index) DocIDs() []uint32 { return ix.docIDs }

// Lists returns the built term → stored list map, or nil before Build. The
// map is owned by the index and read-only; segment.FromIndex adopts it, so
// an installed, merged or loaded segment holds exactly the lists this
// build encoded.
func (ix *Index) Lists() map[string]*compress.Stored { return ix.stored }

// TermCount returns the number of distinct indexed terms.
func (ix *Index) TermCount() int {
	if ix.frozen {
		return len(ix.stored)
	}
	return len(ix.pending)
}

// DocFreq returns the document frequency of a term (0 if unknown).
func (ix *Index) DocFreq(term string) int {
	if s := ix.stored[term]; s != nil {
		return s.Len()
	}
	return 0
}

// ErrUnknownTerm is returned by Query for terms with no postings.
var ErrUnknownTerm = errors.New("invindex: unknown term")

// Query returns the sorted documents containing every term, intersected
// directly over the stored encodings with the kernel the calibrated cost
// model picks (compress.IntersectStored).
func (ix *Index) Query(terms ...string) ([]uint32, error) {
	if !ix.frozen {
		return nil, errors.New("invindex: Query before Build")
	}
	if len(terms) == 0 {
		return nil, errors.New("invindex: empty query")
	}
	ss := make([]*compress.Stored, len(terms))
	for i, t := range terms {
		s := ix.stored[t]
		if s == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTerm, t)
		}
		ss[i] = s
	}
	return compress.IntersectStoredInto(nil, ss...), nil
}
