// Package segment holds the building blocks of the engine's tiered mutable
// tier: the small in-memory segments a shard stacks on top of its frozen
// base index.
//
// A shard's tier is
//
//	base (invindex.Index) + k frozen segments + 1 active mutable segment
//
// where every segment carries its own tombstone filter and per-term document
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
// Mutable is the active write head (map-backed, cheap point updates); Freeze
// converts it into a Frozen segment by MOVING its maps — no postings are
// copied, which is why freezing the active segment is a near-zero-cost
// compaction step. Frozen segments are immutable except for their tombstone
// filter, which only grows and is guarded by the owning shard's lock.
package segment

import (
	"fmt"
	"sort"

	"fastintersect/internal/sets"
)

// TermSource is the read interface the engine's in-memory segment evaluator
// needs: term → sorted docIDs. Both Mutable and Frozen implement it, so one
// evaluator serves the whole tier above the base.
type TermSource interface {
	// Postings returns the sorted docID list of term, or nil. The returned
	// slice must be treated as read-only; for a Mutable it may be shifted in
	// place by the next mutation, so callers that outlive the shard lock
	// must copy it.
	Postings(term string) []uint32
}

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

// Postings implements TermSource. The result aliases live map state.
func (m *Mutable) Postings(term string) []uint32 { return m.terms[term] }

// HasDoc reports whether docID is present in the segment.
func (m *Mutable) HasDoc(docID uint32) bool {
	_, ok := m.docs[docID]
	return ok
}

// NumDocs returns the number of documents held.
func (m *Mutable) NumDocs() int { return len(m.docs) }

// NumPostings returns the total posting count across terms.
func (m *Mutable) NumPostings() int { return m.postings }

// Terms returns the segment's distinct terms, sorted (serialization and
// rebuild folds want deterministic order).
func (m *Mutable) Terms() []string {
	out := make([]string, 0, len(m.terms))
	for t := range m.terms {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Freeze converts the active segment into a Frozen one by MOVING the term
// map — no posting is copied, so a freeze is O(docs) for the docID set and
// nothing else. The Mutable must not be used afterwards.
func (m *Mutable) Freeze() *Frozen {
	docIDs := make([]uint32, 0, len(m.docs))
	for id := range m.docs {
		docIDs = append(docIDs, id)
	}
	sets.SortU32(docIDs)
	f := &Frozen{terms: m.terms, docIDs: docIDs, postings: m.postings}
	m.terms = nil
	m.docs = nil
	m.postings = 0
	return f
}

// Frozen is an immutable in-memory segment: its postings never change after
// construction. Only the tombstone filter grows, and exclusively under the
// owning shard's write lock — which is what lets query results alias frozen
// posting lists after the shard lock is released, and lets merges read
// victim postings off-lock against a tombstone snapshot.
type Frozen struct {
	terms    map[string][]uint32 // term → sorted docIDs; immutable
	docIDs   []uint32            // sorted distinct docIDs; immutable
	postings int
	tombs    []uint32 // sorted, ⊆ docIDs; guarded by the owning shard's lock
}

// FrozenFromParts assembles a Frozen from a decoded term map (codec /
// snapshot load path). Postings and docIDs are derived; tombs is filtered to
// the segment's own documents so LiveDocs stays exact.
func FrozenFromParts(terms map[string][]uint32, tombs []uint32) (*Frozen, error) {
	postings := 0
	lists := make([][]uint32, 0, len(terms))
	for t, ps := range terms {
		if err := sets.Validate(ps); err != nil {
			return nil, fmt.Errorf("segment: term %q: %w", t, err)
		}
		postings += len(ps)
		lists = append(lists, ps)
	}
	f := &Frozen{terms: terms, docIDs: sets.UnionKInto(nil, lists...), postings: postings}
	for _, id := range tombs {
		f.AddTomb(id)
	}
	return f, nil
}

// Postings implements TermSource. The result is immutable and remains valid
// after the shard lock is released.
func (f *Frozen) Postings(term string) []uint32 { return f.terms[term] }

// DocFreq returns the document frequency of term in this segment.
func (f *Frozen) DocFreq(term string) int { return len(f.terms[term]) }

// DocIDs returns the segment's sorted document set (including tombstoned
// documents). Read-only.
func (f *Frozen) DocIDs() []uint32 { return f.docIDs }

// HasDoc reports whether docID is in the segment's document set (it may
// still be tombstoned).
func (f *Frozen) HasDoc(docID uint32) bool { return sets.Contains(f.docIDs, docID) }

// NumDocs returns the document count including tombstoned documents.
func (f *Frozen) NumDocs() int { return len(f.docIDs) }

// LiveDocs returns the visible document count (tombs ⊆ docIDs, which AddTomb
// enforces).
func (f *Frozen) LiveDocs() int { return len(f.docIDs) - len(f.tombs) }

// NumPostings returns the total posting count across terms (tombstoned
// documents included — they are suppressed at query time, not purged).
func (f *Frozen) NumPostings() int { return f.postings }

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
func (f *Frozen) Terms() []string {
	out := make([]string, 0, len(f.terms))
	for t := range f.terms {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Merge coalesces several frozen segments into one, dropping the documents
// each input had tombstoned at snapshot time. tombSnaps[i] is the snapshot
// of inputs[i].Tombs() taken under the shard lock when the merge was
// scheduled; the merge itself runs off-lock (inputs' postings are immutable,
// and tombstones added after the snapshot are re-applied by the caller at
// swap time via AddTomb). The result has an empty tombstone filter and its
// NumPostings is exactly the number of postings written — the merge's write
// amplification numerator.
func Merge(inputs []*Frozen, tombSnaps [][]uint32) *Frozen {
	terms := map[string][]uint32{}
	var scratch []uint32
	postings := 0
	live := make([][]uint32, len(inputs))
	for i, in := range inputs {
		live[i] = sets.Difference(in.docIDs, tombSnaps[i])
	}
	docIDs := sets.UnionKInto(nil, live...)
	for i, in := range inputs {
		for t, ps := range in.terms {
			scratch = sets.DifferenceInto(scratch[:0], ps, tombSnaps[i])
			if len(scratch) == 0 {
				continue
			}
			prev := terms[t]
			postings -= len(prev)
			merged := sets.Union(prev, scratch)
			terms[t] = merged
			postings += len(merged)
		}
	}
	return &Frozen{terms: terms, docIDs: docIDs, postings: postings}
}
