package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"fastintersect/internal/invindex"
	"fastintersect/internal/plan"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// The mutable tier. Each shard is a tiered segmented index:
//
//   - base: a frozen invindex.Index of stored posting lists, exactly the
//     structure Install produces, plus baseTombs, its tombstone filter.
//   - frozen: zero or more immutable segment.Frozen segments, each with its
//     own tombstone filter and per-term document frequencies. Produced by
//     freezing the active segment (a map move, no copying) and coalesced by
//     size-tiered merges.
//   - active: one segment.Mutable write head absorbing AddDocument calls.
//
// The invariant that makes boolean evaluation decomposable is that every
// document is VISIBLE in exactly one segment: a mutation tombstones the
// docID in every older segment that holds a copy while writing the new
// version into the active segment. Deleted-then-re-added documents are
// therefore visible again, updated documents never match on stale terms, and
// since the per-segment visible universes are disjoint, any AND/OR/NOT
// expression f satisfies
//
//	f(shard) = ∪ over segments s of (f(s) − s.tombs)
//
// — every segment runs the same plan evaluator (evalOp), the in-memory
// segments' sorted lists entering it as EncRaw views, and the results
// combine with one sets.UnionKInto. Order independence is what permits
// size-tiered merging: any subset of frozen segments coalesces into one
// without consulting the rest. All scratch comes from the pooled execCtx, so
// the zero-allocation discipline of the read path survives; with no frozen
// segments and an empty active segment the only added cost is one RLock.
//
// Compaction is tiered (Config.CompactPolicy):
//
//   - A freeze moves the active segment into the frozen tier under the shard
//     lock — O(docs) for the docID set, zero posting copies, no pause for
//     readers beyond the lock handoff.
//   - When the tier exceeds Config.MaxSegments, a size-tiered merge
//     coalesces only the smallest segments, off-lock, against tombstone
//     snapshots; tombstones added mid-merge are re-applied at swap time.
//     Write amplification is bounded by merge fan-in instead of corpus size.
//   - A full rebuild (Compact, or the background escalation once baseTombs
//     crosses rebuildTombFactor × CompactThreshold) folds everything into a
//     fresh base via the same BuildParallel path Install uses. Only this
//     step re-encodes lists, so only it (and Install) bumps the stats epoch.
//
// The visible document set is unchanged by freezes, merges and rebuilds,
// which is why none of them bump the cache generation.
type shard struct {
	mu        sync.RWMutex
	base      *invindex.Index
	baseDocs  []uint32 // sorted distinct docIDs of base (= base.DocIDs())
	baseTombs []uint32 // sorted, ⊆ baseDocs; suppresses base postings
	frozen    []*segment.Frozen
	active    *segment.Mutable

	compacting bool // claimed by at most one compaction goroutine
	retired    bool // set (before the swap) by Install replacing this shard
}

func newShard(ix *invindex.Index) *shard {
	return &shard{
		base:     ix,
		baseDocs: ix.DocIDs(),
		active:   segment.NewMutable(),
	}
}

// liveLocked counts the distinct visible documents of the shard. The
// one-visible-segment invariant makes this exact arithmetic: every segment's
// tombstone filter is a subset of its own document set. Caller holds s.mu.
func (s *shard) liveLocked() int {
	live := len(s.baseDocs) - len(s.baseTombs) + s.active.NumDocs()
	for _, f := range s.frozen {
		live += f.LiveDocs()
	}
	return live
}

// visibleLocked reports whether docID is currently visible in this shard.
// Caller holds s.mu (read or write).
func (s *shard) visibleLocked(docID uint32) bool {
	if s.active.HasDoc(docID) {
		return true
	}
	for _, f := range s.frozen {
		if f.Visible(docID) {
			return true
		}
	}
	return sets.Contains(s.baseDocs, docID) && !sets.Contains(s.baseTombs, docID)
}

// addTombLocked tombstones docID in every segment below the active one that
// holds a copy, preserving the one-visible-segment invariant. Caller holds
// s.mu.
func (s *shard) addTombLocked(docID uint32) {
	for _, f := range s.frozen {
		f.AddTomb(docID)
	}
	if sets.Contains(s.baseDocs, docID) {
		s.baseTombs, _ = sets.InsertSorted(s.baseTombs, docID)
	}
}

// dedupTerms filters empties and duplicates, preserving first-seen order.
func dedupTerms(terms []string) []string {
	out := make([]string, 0, len(terms))
	seen := make(map[string]bool, len(terms))
	for _, t := range terms {
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out
}

// ErrNoTerms rejects AddDocument calls whose term list is empty after
// dropping empty strings and duplicates: a termless document would be
// "live" yet unreachable by any query, and would silently vanish from the
// doc count at the next compaction. Delete the document instead.
var ErrNoTerms = errors.New("engine: AddDocument requires at least one non-empty term")

// AddDocument makes a document queryable without a rebuild: its terms are
// written to the home shard's active segment and any previously indexed
// version (base, frozen or active) is superseded. Duplicate and empty terms
// are ignored; a list with no usable term at all returns ErrNoTerms. The
// index generation is bumped, so stale cached results are never served.
// Returns ErrNotBuilt before the first Install.
func (e *Engine) AddDocument(docID uint32, terms []string) error {
	terms = dedupTerms(terms)
	if len(terms) == 0 {
		return ErrNoTerms
	}
	s, err := e.lockShard(docID)
	if err != nil {
		return err
	}
	s.active.AddDoc(docID, terms)
	// Suppress every older copy; the active version wins. This keeps the
	// one-visible-segment invariant evalSegments relies on.
	s.addTombLocked(docID)
	spawn := e.wantsCompactLocked(s)
	s.mu.Unlock()
	e.met.mutations.Inc()
	e.gen.Add(1)
	if spawn {
		go e.compactShard(s) //nolint:errcheck // state is untouched on failure; retried on the next trigger
	}
	return nil
}

// DeleteDocument removes a document from query results immediately: the
// active version (if any) is dropped and the docID is tombstoned in every
// segment holding a copy. It reports whether the document was visible before
// the call. The index generation is bumped, so cached results containing the
// document are never served again. Returns ErrNotBuilt before the first
// Install.
func (e *Engine) DeleteDocument(docID uint32) (bool, error) {
	s, err := e.lockShard(docID)
	if err != nil {
		return false, err
	}
	if !s.visibleLocked(docID) {
		// Nothing is visible to suppress: any base/frozen copy is already
		// tombstoned. Skipping the tombstone and the generation bump keeps
		// no-op deletes (retries, probes of unknown IDs) from invalidating
		// the result cache and growing the tombstone sets.
		s.mu.Unlock()
		return false, nil
	}
	s.active.RemoveDoc(docID)
	s.addTombLocked(docID)
	spawn := e.wantsCompactLocked(s)
	s.mu.Unlock()
	e.met.mutations.Inc()
	e.gen.Add(1)
	if spawn {
		go e.compactShard(s) //nolint:errcheck
	}
	return true, nil
}

// lockShard returns docID's home shard with its write lock held, retrying
// when a concurrent Install retires the snapshotted shard set — this is what
// makes a mutation acknowledged to the caller land in the shard set that
// serves subsequent queries rather than in a discarded snapshot. Returns
// ErrNotBuilt (without a lock) before the first Install.
func (e *Engine) lockShard(docID uint32) (*shard, error) {
	for {
		shards := e.snapshot()
		if shards == nil {
			return nil, ErrNotBuilt
		}
		s := shards[shardOf(docID, len(shards))]
		s.mu.Lock()
		if !s.retired {
			return s, nil
		}
		// Install marked this shard retired just before swapping the set;
		// re-snapshot (briefly spinning until the swap lands).
		s.mu.Unlock()
	}
}

// rebuildTombFactor escalates a tiered compaction to a full rebuild once the
// base tombstone filter reaches this multiple of the compaction threshold:
// base tombstones are only purged by a rebuild, and past this point the
// per-query subtraction outweighs the rebuild's amortized cost.
const rebuildTombFactor = 4

// defaultMaxSegments bounds the frozen tier when Config.MaxSegments is 0.
const defaultMaxSegments = 4

func (e *Engine) maxSegments() int {
	if e.cfg.MaxSegments > 0 {
		return e.cfg.MaxSegments
	}
	return defaultMaxSegments
}

// tombTrigger is the base-tombstone count that triggers a background
// compaction. Under the rebuild policy any threshold crossing warrants the
// rebuild that purges them; under the tiered policy a rebuild is the only
// step that purges base tombstones, so the trigger sits at the escalation
// point — triggering earlier would just spawn freeze-only no-ops on every
// mutation.
func (e *Engine) tombTrigger() int {
	if e.cfg.CompactPolicy == CompactRebuild {
		return e.cfg.CompactThreshold
	}
	return rebuildTombFactor * e.cfg.CompactThreshold
}

// wantsCompactLocked claims a background compaction for s when the
// configured threshold is crossed. Caller holds s.mu; when it returns true
// the caller must spawn compactShard(s) after unlocking.
func (e *Engine) wantsCompactLocked(s *shard) bool {
	if e.cfg.CompactThreshold <= 0 || s.compacting || s.retired {
		return false
	}
	if s.active.NumPostings() < e.cfg.CompactThreshold &&
		len(s.baseTombs) < e.tombTrigger() &&
		len(s.frozen) <= e.maxSegments() {
		return false
	}
	s.compacting = true
	return true
}

// Compact synchronously folds every shard's whole tier (frozen segments,
// active segment, tombstones) into a fresh frozen base — the same parallel
// build path Install uses — and swaps it in per shard. Queries keep running
// throughout and the visible document set is unchanged, so the result cache
// stays valid. Shards already being compacted in the background, and shards
// whose tier is already empty (no frozen segments, empty active segment, no
// tombstones — a no-op rebuild), are skipped. Returns ErrNotBuilt before the
// first Install.
func (e *Engine) Compact() error {
	shards := e.snapshot()
	if shards == nil {
		return ErrNotBuilt
	}
	var firstErr error
	for _, s := range shards {
		s.mu.Lock()
		if s.compacting || s.retired ||
			(s.active.NumDocs() == 0 && len(s.frozen) == 0 && len(s.baseTombs) == 0) {
			s.mu.Unlock()
			continue
		}
		s.compacting = true
		s.mu.Unlock()
		if err := e.rebuildShard(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// FreezeActive moves every shard's non-empty active segment into its frozen
// tier — a map move under the shard lock, no postings copied. Exposed so
// tests and operational tooling can force multi-segment tiers
// deterministically; the background compaction path freezes on its own.
// Returns ErrNotBuilt before the first Install.
func (e *Engine) FreezeActive() error {
	shards := e.snapshot()
	if shards == nil {
		return ErrNotBuilt
	}
	for _, s := range shards {
		s.mu.Lock()
		if !s.retired {
			e.freezeActiveLocked(s)
		}
		s.mu.Unlock()
	}
	return nil
}

// freezeActiveLocked freezes s's active segment if non-empty. Caller holds
// s.mu.
func (e *Engine) freezeActiveLocked(s *shard) {
	if s.active.NumDocs() == 0 {
		return
	}
	s.frozen = append(s.frozen, s.active.Freeze())
	s.active = segment.NewMutable()
	e.met.segmentFreezes.Inc()
}

// MergeSegments synchronously runs size-tiered merge passes on every shard
// until its frozen tier is within Config.MaxSegments (shards with a claimed
// background compaction are skipped). Exposed for tests and tooling; the
// background compaction path merges on its own. Returns ErrNotBuilt before
// the first Install.
func (e *Engine) MergeSegments() error {
	shards := e.snapshot()
	if shards == nil {
		return ErrNotBuilt
	}
	for _, s := range shards {
		for {
			s.mu.Lock()
			if s.compacting || s.retired || len(s.frozen) <= e.maxSegments() {
				s.mu.Unlock()
				break
			}
			s.compacting = true
			victims, snaps := s.pickMergeLocked(e.maxSegments())
			s.mu.Unlock()
			e.mergeSegments(s, victims, snaps)
		}
	}
	return nil
}

// compactShard is the background compaction job: it freezes the active
// segment, then either runs a size-tiered merge (tier over MaxSegments), a
// full rebuild (tombstone escalation, or Config.CompactPolicy ==
// CompactRebuild), or stops after the freeze. The caller must have claimed
// s.compacting under s.mu; the claim is released on every path.
func (e *Engine) compactShard(s *shard) error {
	if e.cfg.CompactPolicy == CompactRebuild {
		return e.rebuildShard(s)
	}
	s.mu.Lock()
	if s.retired {
		s.compacting = false
		s.mu.Unlock()
		return nil
	}
	e.freezeActiveLocked(s)
	if e.cfg.CompactThreshold > 0 && len(s.baseTombs) >= e.tombTrigger() {
		s.mu.Unlock()
		return e.rebuildShard(s) // claim carries over
	}
	var victims []*segment.Frozen
	var snaps [][]uint32
	if len(s.frozen) > e.maxSegments() {
		victims, snaps = s.pickMergeLocked(e.maxSegments())
	}
	s.mu.Unlock()
	if victims == nil {
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
		e.met.compactions.Inc()
		return nil
	}
	e.mergeSegments(s, victims, snaps)
	e.met.compactions.Inc()
	return nil
}

// pickMergeLocked selects the merge victims of one size-tiered pass: the
// smallest segments first — enough to bring the tier back under maxSegs —
// extended while the next-larger segment is no bigger than twice the
// payload merged so far. Merging small-into-small is what bounds write
// amplification: a large segment is only rewritten when its peers have
// grown to its scale. Returns the victims plus a snapshot of each one's
// tombstone filter (the merge runs off-lock against the snapshots).
// Caller holds s.mu and has claimed s.compacting.
func (s *shard) pickMergeLocked(maxSegs int) ([]*segment.Frozen, [][]uint32) {
	bySize := make([]*segment.Frozen, len(s.frozen))
	copy(bySize, s.frozen)
	sort.Slice(bySize, func(i, j int) bool { return bySize[i].NumPostings() < bySize[j].NumPostings() })
	need := len(s.frozen) - maxSegs + 1
	if need < 2 {
		need = 2
	}
	if need > len(bySize) {
		need = len(bySize)
	}
	cum := 0
	n := 0
	for ; n < len(bySize); n++ {
		if n >= need && bySize[n].NumPostings() > 2*cum {
			break
		}
		cum += bySize[n].NumPostings()
	}
	victims := bySize[:n]
	snaps := make([][]uint32, len(victims))
	for i, v := range victims {
		snaps[i] = sets.Clone(v.Tombs())
	}
	return victims, snaps
}

// mergeSegments coalesces victims into one segment off-lock and swaps it
// into s's tier, re-applying tombstones recorded after the snapshots and
// releasing the compaction claim. Victims keep serving queries until the
// swap; their postings are immutable, so the off-lock merge reads them
// safely against the tombstone snapshots.
func (e *Engine) mergeSegments(s *shard, victims []*segment.Frozen, snaps [][]uint32) {
	merged := segment.Merge(victims, snaps)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = false
	if s.retired {
		return // replaced mid-merge: the shard will never serve again
	}
	isVictim := func(f *segment.Frozen) bool {
		for _, v := range victims {
			if v == f {
				return true
			}
		}
		return false
	}
	kept := s.frozen[:0]
	for _, f := range s.frozen {
		if !isVictim(f) {
			kept = append(kept, f)
		}
	}
	// Deletes that landed between snapshot and swap tombstoned the victims;
	// re-apply them to the merged segment (AddTomb skips documents the merge
	// already dropped).
	for i, v := range victims {
		for _, id := range sets.Difference(v.Tombs(), snaps[i]) {
			merged.AddTomb(id)
		}
	}
	if merged.NumDocs() > 0 {
		kept = append(kept, merged)
	}
	for i := len(kept); i < len(s.frozen); i++ {
		s.frozen[i] = nil // drop trailing refs so filtered-out segments free
	}
	s.frozen = kept
	e.met.segmentMerges.Inc()
	e.met.compactionBytes.Add(4 * uint64(merged.NumPostings()))
	// No stats-epoch bump: a merge moves postings between in-memory segments
	// without touching the base encodings, so every memoized plan stays
	// correctly priced. Only rebuilds and installs re-encode lists.
}

// rebuildShard folds s's entire tier — (base − baseTombs) and every frozen
// segment minus its tombstones — into a fresh base index and swaps it in.
// The caller must have claimed s.compacting under s.mu. The shard lock is
// held only to freeze the active segment and to swap — the rebuild itself
// runs off-lock against the immutable base and frozen segments, with
// tombstones recorded mid-build re-applied at swap time. On build failure
// the tier is untouched (frozen segments are only dropped at a successful
// swap), so no mutation is lost and a later compaction retries.
func (e *Engine) rebuildShard(s *shard) error {
	s.mu.Lock()
	if s.retired {
		// An Install replaced this shard between the claim and now; a
		// rebuild of a discarded shard would be pure wasted work.
		s.compacting = false
		s.mu.Unlock()
		return nil
	}
	e.freezeActiveLocked(s)
	base := s.base
	baseTombsSnap := sets.Clone(s.baseTombs)
	inputs := make([]*segment.Frozen, len(s.frozen))
	copy(inputs, s.frozen)
	snaps := make([][]uint32, len(inputs))
	for i, f := range inputs {
		snaps[i] = sets.Clone(f.Tombs())
	}
	s.mu.Unlock()

	perShard := e.cfg.Workers / e.cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	nb, err := e.rebuildBase(base, inputs, baseTombsSnap, snaps, perShard)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = false
	if s.retired {
		return nil // replaced mid-build: neither the new base nor the old tier matters
	}
	if err != nil {
		return fmt.Errorf("engine: compaction: %w", err)
	}
	// Tombstones recorded during the build apply to documents the new base
	// has folded in; carry exactly those forward.
	newTombs := sets.Difference(s.baseTombs, baseTombsSnap)
	for i, f := range inputs {
		newTombs = sets.Union(newTombs, sets.Difference(f.Tombs(), snaps[i]))
	}
	s.base = nb
	s.baseDocs = nb.DocIDs()
	s.baseTombs = newTombs
	// Segments frozen after the snapshot (e.g. by a concurrent FreezeActive)
	// were not folded in; keep them.
	kept := s.frozen[:0]
	for _, f := range s.frozen {
		folded := false
		for _, in := range inputs {
			if in == f {
				folded = true
				break
			}
		}
		if !folded {
			kept = append(kept, f)
		}
	}
	for i := len(kept); i < len(s.frozen); i++ {
		s.frozen[i] = nil
	}
	s.frozen = kept
	// The swap can re-encode any list in this shard (a dense segment folding
	// into the base may flip a term from Gamma to Bitseg, say), so plans
	// priced against the old shapes must be rebuilt: bump the stats epoch,
	// invalidating every plan-cache entry (see plancache.go).
	e.statsEpoch.Add(1)
	e.met.compactions.Inc()
	e.met.compactionBytes.Add(4 * uint64(nb.MemStats().Postings))
	return nil
}

// rebuildBase materializes (base − baseTombs) ∪ (segments − their tombstone
// snapshots) term by term into a fresh index and builds it. base and the
// frozen segments' postings are immutable, so no lock is needed.
func (e *Engine) rebuildBase(base *invindex.Index, segs []*segment.Frozen, baseTombs []uint32, snaps [][]uint32, workers int) (*invindex.Index, error) {
	nb := invindex.NewWithStorage(e.cfg.Storage)
	var scratch, scratch2 []uint32
	segTerm := func(term string) []uint32 {
		var merged []uint32
		for i, f := range segs {
			ps := f.Postings(term)
			if len(ps) == 0 {
				continue
			}
			scratch2 = sets.DifferenceInto(scratch2[:0], ps, snaps[i])
			merged = sets.Union(merged, scratch2)
		}
		return merged
	}
	for _, term := range base.Terms() {
		scratch = sets.DifferenceInto(scratch[:0], base.Stored(term).Decode(), baseTombs)
		merged := scratch
		if add := segTerm(term); len(add) > 0 {
			merged = sets.Union(scratch, add)
		}
		if len(merged) == 0 {
			continue
		}
		if err := nb.AddPosting(term, merged); err != nil {
			return nil, err
		}
	}
	seen := map[string]bool{}
	for _, f := range segs {
		for _, term := range f.Terms() {
			if seen[term] || base.DocFreq(term) > 0 {
				continue // already merged above
			}
			seen[term] = true
			if add := segTerm(term); len(add) > 0 {
				if err := nb.AddPosting(term, add); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := nb.BuildParallel(workers); err != nil {
		return nil, err
	}
	return nb, nil
}

// evalSegments evaluates a physical plan against one shard's tier: the base
// and every in-memory segment through the same evaluator (evalOp), each
// result minus its segment's tombstone filter, all combined with one k-way
// union. Ownership rules match evalOp: the returned slice either aliases
// index/segment memory (owned = false, read-only) or is backed by a context
// buffer (owned = true).
//
// The shard read lock is held for the whole evaluation; mutations, freezes
// and merge/rebuild swaps therefore see shard state atomically. Base and
// frozen postings are immutable, so per-segment results may alias them even
// after the lock is released; active-segment results are copied under the
// lock.
func (e *Engine) evalSegments(c *execCtx, s *shard, p *plan.Plan) ([]uint32, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	docs, owned, err := e.evalOp(c, source{base: s.base}, p, p.Root())
	c.resetViews()
	if err != nil {
		return nil, false, err
	}
	docs, owned = c.minusTombs(docs, owned, s.baseTombs)
	if len(s.frozen) == 0 && s.active.NumDocs() == 0 {
		// Single-segment tier: the base result is the shard result. This is
		// the steady-state fast path that keeps pure-base queries
		// allocation-free.
		return docs, owned, nil
	}
	f := c.frame()
	push := func(res []uint32, resOwned bool) {
		if len(res) == 0 {
			if resOwned {
				c.putBuf(res)
			}
			return
		}
		f.kids = append(f.kids, res)
		f.kidsOwned = append(f.kidsOwned, resOwned)
	}
	push(docs, owned)
	for _, fz := range s.frozen {
		res, resOwned, err := e.evalOp(c, source{seg: fz}, p, p.Root())
		c.resetViews()
		if err != nil {
			c.releaseFrame(f)
			return nil, false, err
		}
		push(c.minusTombs(res, resOwned, fz.Tombs()))
	}
	if s.active.NumDocs() > 0 {
		res, resOwned, err := e.evalOp(c, source{seg: s.active}, p, p.Root())
		c.resetViews()
		if err != nil {
			c.releaseFrame(f)
			return nil, false, err
		}
		if !resOwned && len(res) > 0 {
			// An unowned active-segment result aliases a live list, which a
			// mutation may shift in place the moment the shard lock is
			// released — unlike base and frozen postings, which stay
			// immutable. Copy into a context buffer while still under the
			// lock.
			res, resOwned = append(c.getBuf(), res...), true
		}
		push(res, resOwned)
	}
	switch len(f.kids) {
	case 0:
		c.releaseFrame(f)
		return nil, false, nil
	case 1:
		res, resOwned := f.kids[0], f.kidsOwned[0]
		f.kidsOwned[0] = false // detach: ownership moves to the caller
		c.releaseFrame(f)
		return res, resOwned, nil
	}
	out := sets.UnionKInto(c.getBuf(), f.kids...)
	c.releaseFrame(f)
	return out, true, nil
}

// minusTombs subtracts a segment's tombstone filter from its result under
// evalOp's ownership rules.
func (c *execCtx) minusTombs(docs []uint32, owned bool, tombs []uint32) ([]uint32, bool) {
	if len(tombs) == 0 || len(docs) == 0 {
		return docs, owned
	}
	out := sets.DifferenceInto(c.getBuf(), docs, tombs)
	if owned {
		c.putBuf(docs)
	}
	return out, true
}
