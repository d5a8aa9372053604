// Package segment holds the segments of the engine's shards. A shard is
//
//	k frozen segments + 1 active mutable segment
//
// where the frozen segment an Install builds is simply the first one, and
// every segment carries its own tombstone filter and per-term document
// frequencies. The invariant the engine maintains (see engine/mutable.go) is
// that each document is VISIBLE in exactly one segment: writing a document
// tombstones every older copy, so for any boolean expression f
//
//	f(shard) = ∪ over segments s of (f(s) − s.tombs)
//
// and the per-segment results can be combined with one k-way union,
// independent of segment order. That order independence is what makes
// size-tiered merging possible: any subset of frozen segments can be
// coalesced into one without consulting the others.
//
// A frozen posting list is a List: a sorted []uint32 with its span and its
// lazily attached bitseg form beside it. Mutable is the active write head
// (map-backed, cheap point updates); Freeze converts it into a Frozen
// segment by MOVING its lists — each becomes a List over the same array, so
// no posting is copied and freezing the active segment is a near-zero-cost
// compaction step. A Frozen segment holds its Lists, its docID set and its
// tombstone filter; it is immutable except for that filter, which only
// grows and is guarded by the owning shard's lock. Every frozen segment
// that is not a freeze — an installed shard, a merge, a loaded snapshot
// section — is built by Build, the one list builder, which keeps one
// exact-size copy per list.
package segment

import (
	"sort"
	"sync/atomic"

	"fastintersect/internal/bitseg"
	"fastintersect/internal/sets"
)

// Mutable is the active write head of one shard: a term → sorted docIDs map
// plus a docID → terms reverse map so deletes and overwrites are exact.
// All access is guarded by the owning shard's mutex.
type Mutable struct {
	terms    map[string][]uint32 // term → sorted docIDs
	docs     map[uint32][]string // docID → its distinct terms
	postings int                 // total postings across terms
}

// NewMutable returns an empty active segment.
func NewMutable() *Mutable {
	return &Mutable{terms: map[string][]uint32{}, docs: map[uint32][]string{}}
}

// AddDoc records terms (already deduplicated, no empties) for docID,
// replacing any previous version of the document in this segment.
func (m *Mutable) AddDoc(docID uint32, terms []string) {
	m.RemoveDoc(docID)
	m.docs[docID] = terms
	for _, t := range terms {
		s, inserted := sets.InsertSorted(m.terms[t], docID)
		m.terms[t] = s
		if inserted {
			m.postings++
		}
	}
}

// RemoveDoc drops docID from the segment, reporting whether it was present.
func (m *Mutable) RemoveDoc(docID uint32) bool {
	terms, ok := m.docs[docID]
	if !ok {
		return false
	}
	for _, t := range terms {
		s, removed := sets.RemoveSorted(m.terms[t], docID)
		if removed {
			m.postings--
		}
		if len(s) == 0 {
			delete(m.terms, t)
		} else {
			m.terms[t] = s
		}
	}
	delete(m.docs, docID)
	return true
}

// Postings returns term's sorted docIDs, or nil. The result aliases live
// map state: the next mutation may shift it in place, so callers that
// outlive the shard lock must copy it.
func (m *Mutable) Postings(term string) []uint32 { return m.terms[term] }

// HasDoc reports whether docID is present in the segment.
func (m *Mutable) HasDoc(docID uint32) bool {
	_, ok := m.docs[docID]
	return ok
}

// DocIDs returns the segment's documents as a fresh sorted slice.
func (m *Mutable) DocIDs() []uint32 {
	ids := make([]uint32, 0, len(m.docs))
	for id := range m.docs {
		ids = append(ids, id)
	}
	sets.SortU32(ids)
	return ids
}

// NumDocs returns the number of documents held.
func (m *Mutable) NumDocs() int { return len(m.docs) }

// NumPostings returns the total posting count across terms.
func (m *Mutable) NumPostings() int { return m.postings }

// Terms returns the segment's distinct terms, sorted (serialization wants
// deterministic order).
func (m *Mutable) Terms() []string { return sortedKeys(m.terms) }

// Freeze converts the active segment into a Frozen one by MOVING its lists:
// each becomes a List over the same array, so a freeze copies no posting —
// it costs one list header per term (all allocated together) plus the
// sorted docID set. The Mutable must not be used afterwards.
func (m *Mutable) Freeze() *Frozen {
	f := newFrozen(len(m.terms), m.DocIDs())
	for t, ps := range m.terms {
		f.add(t, ps)
	}
	m.terms = nil
	m.docs = nil
	m.postings = 0
	return f
}

// List is one frozen posting list: strictly increasing docIDs, one past the
// largest (the span the planner prices BitsegAnd with) and the list's
// bitseg form, attached the first time a query runs BitsegAnd over it. The
// docIDs never change; a List is safe for concurrent use.
type List struct {
	docs []uint32
	span int
	bits atomic.Pointer[bitseg.List]
}

// Docs returns the sorted docIDs. The slice is the list itself: read-only.
func (l *List) Docs() []uint32 { return l.docs }

// Span returns one past the largest docID.
func (l *List) Span() int { return l.span }

// Bitseg returns the list's bitseg form, built on first use and attached
// for every later query. Concurrent first uses may each build one; the
// first attach wins and every caller gets a form of the same list.
func (l *List) Bitseg() *bitseg.List {
	if b := l.bits.Load(); b != nil {
		return b
	}
	b, _ := bitseg.FromSorted(l.docs) // strictly increasing by construction
	if l.bits.CompareAndSwap(nil, b) {
		return b
	}
	return l.bits.Load()
}

// Frozen is an immutable segment: its posting lists never change after
// construction. Only the tombstone filter grows, and exclusively under the
// owning shard's write lock — which is what lets query results alias frozen
// posting lists after the shard lock is released, and lets merges read
// their inputs off-lock against a tombstone snapshot.
type Frozen struct {
	lists    map[string]*List // term → posting list; immutable
	hdrs     []List           // the lists' headers, allocated together
	docIDs   []uint32         // sorted distinct docIDs; immutable
	postings int
	tombs    []uint32 // sorted, ⊆ docIDs; guarded by the owning shard's lock
}

// newFrozen returns a segment over docIDs with room for terms lists, which
// add fills in.
func newFrozen(terms int, docIDs []uint32) *Frozen {
	return &Frozen{lists: make(map[string]*List, terms), hdrs: make([]List, 0, terms), docIDs: docIDs}
}

// add adopts docs, non-empty and strictly increasing, as term's list.
func (f *Frozen) add(term string, docs []uint32) {
	f.hdrs = append(f.hdrs, List{docs: docs, span: int(docs[len(docs)-1]) + 1})
	f.lists[term] = &f.hdrs[len(f.hdrs)-1]
	f.postings += len(docs)
}

// List returns term's posting list, or nil. The list is immutable and
// remains valid after the shard lock is released.
func (f *Frozen) List(term string) *List { return f.lists[term] }

// DocFreq returns the document frequency of term in this segment.
func (f *Frozen) DocFreq(term string) int {
	if l := f.lists[term]; l != nil {
		return len(l.docs)
	}
	return 0
}

// DocIDs returns the segment's sorted document set (including tombstoned
// documents). Read-only.
func (f *Frozen) DocIDs() []uint32 { return f.docIDs }

// NumDocs returns the document count including tombstoned documents.
func (f *Frozen) NumDocs() int { return len(f.docIDs) }

// LiveDocs returns the visible document count (tombs ⊆ docIDs, which AddTomb
// enforces).
func (f *Frozen) LiveDocs() int { return len(f.docIDs) - len(f.tombs) }

// NumPostings returns the total posting count across terms (tombstoned
// documents included — they are suppressed at query time, not purged).
func (f *Frozen) NumPostings() int { return f.postings }

// NumTerms returns the number of distinct terms.
func (f *Frozen) NumTerms() int { return len(f.lists) }

// Tombs returns the tombstone filter. Guarded by the owning shard's lock.
func (f *Frozen) Tombs() []uint32 { return f.tombs }

// AddTomb tombstones docID, reporting whether the filter changed. Inserts
// are skipped for documents the segment does not hold, preserving the
// tombs ⊆ docIDs invariant LiveDocs depends on. Caller holds the owning
// shard's write lock.
func (f *Frozen) AddTomb(docID uint32) bool {
	if !sets.Contains(f.docIDs, docID) {
		return false
	}
	var inserted bool
	f.tombs, inserted = sets.InsertSorted(f.tombs, docID)
	return inserted
}

// Visible reports whether docID is in the segment and not tombstoned.
func (f *Frozen) Visible(docID uint32) bool {
	return sets.Contains(f.docIDs, docID) && !sets.Contains(f.tombs, docID)
}

// Terms returns the segment's distinct terms, sorted.
func (f *Frozen) Terms() []string { return sortedKeys(f.lists) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Merge coalesces frozen segments into one, dropping the documents each
// input had tombstoned at snapshot time, and builds the result with Build
// (workers goroutines). It serves every merge: a
// size-tiered merge of the smallest segments and a full compaction of
// every segment alike.
//
// tombSnaps[i] is the snapshot of inputs[i].Tombs() taken under the shard
// lock when the merge was scheduled; the merge itself runs off-lock
// (inputs' lists are immutable, and tombstones added after the snapshot are
// re-applied by the caller at swap time via AddTomb). Each term costs one
// k-way union. The result has an empty tombstone filter and its NumPostings
// is exactly the number of postings written — the merge's write
// amplification numerator.
func Merge(inputs []*Frozen, tombSnaps [][]uint32, workers int) *Frozen {
	pending := map[string][]uint32{}
	live := make([][]uint32, 0, len(inputs))
	bufs := make([][]uint32, len(inputs))
	var merged []uint32
	for i, in := range inputs {
		for term := range in.lists {
			if _, done := pending[term]; done {
				continue // merged at the first input holding it
			}
			live = live[:0]
			for j, src := range inputs[i:] {
				l := src.lists[term]
				if l == nil {
					continue
				}
				docs := l.docs
				if tombs := tombSnaps[i+j]; len(tombs) > 0 {
					bufs[i+j] = sets.DifferenceInto(bufs[i+j][:0], docs, tombs)
					docs = bufs[i+j]
				}
				live = append(live, docs)
			}
			merged = sets.UnionKInto(merged[:0], live...)
			// An exact-size copy, which Build adopts as it is; an empty one
			// marks the term done and builds no list.
			pending[term] = append(make([]uint32, 0, len(merged)), merged...)
		}
	}
	return Build(pending, workers)
}
