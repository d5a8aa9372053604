package segment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fastintersect/internal/sets"
)

// Build is the one list builder: it turns pending term → docIDs postings
// (any order, duplicates allowed) into a frozen segment — an installed
// shard, a merge output, a loaded snapshot section. It consumes pending's
// slices. A fixed set of workers goroutines (0 = GOMAXPROCS) claims terms
// by index and sorts and deduplicates each list into its own slot, so the
// workers share nothing but the counter. A list retains its slice, so each
// keeps exactly its postings' memory: a slice with spare capacity is copied
// once, an exact-size one is adopted. Terms left with no postings build no
// list.
func Build(pending map[string][]uint32, workers int) *Frozen {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	terms := make([]string, 0, len(pending))
	for t := range pending {
		terms = append(terms, t)
	}
	lists := make([][]uint32, len(terms))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(terms)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(terms); i = int(next.Add(1)) - 1 {
				set := sets.SortDedup(pending[terms[i]])
				if cap(set) != len(set) {
					set = append(make([]uint32, 0, len(set)), set...)
				}
				lists[i] = set
			}
		}()
	}
	wg.Wait()
	// Distinct documents = the union of every posting list, so a document
	// is counted once however it arrived. Tens of thousands of lists over
	// one docID span are dense by UnionKInto's rule, so this is one bitmap
	// pass — O(postings + span/64), whatever the term count — and the docID
	// set comes out exactly sized.
	f := newFrozen(len(terms), sets.UnionKInto(nil, lists...))
	for i, t := range terms {
		if len(lists[i]) > 0 {
			f.add(t, lists[i])
		}
	}
	return f
}
