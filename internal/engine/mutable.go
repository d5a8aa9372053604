package engine

import (
	"errors"
	"slices"
	"sort"
	"sync"

	"fastintersect/internal/plan"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// The mutable tier. Each shard is a tiered segmented index:
//
//   - segs: zero or more immutable segment.Frozen segments, each holding
//     its posting lists, its docID set and its own tombstone filter.
//     Install builds the first one; freezing the active segment (a map
//     move, no posting copied) appends more; merges coalesce them.
//   - active: one segment.Mutable write head absorbing AddDocument calls.
//
// The invariant that makes boolean evaluation decomposable is that every
// document is VISIBLE in exactly one segment: a mutation tombstones the
// docID in every frozen segment that holds a copy while writing the new
// version into the active segment. Deleted-then-re-added documents are
// therefore visible again, updated documents never match on stale terms, and
// since the per-segment visible universes are disjoint, any AND/OR/NOT
// expression f satisfies
//
//	f(shard) = ∪ over segments s of (f(s) − s.tombs)
//
// — every segment runs the same plan evaluator (evalOp) over its sorted
// lists, and the results combine with one sets.UnionKInto. Order
// independence is what permits size-tiered merging: any subset of frozen
// segments coalesces into one without consulting the rest. All scratch
// comes from the pooled execCtx, so the zero-allocation discipline of the
// read path survives; with one frozen segment and an empty active segment
// the only added cost is one RLock.
//
// Compaction has three steps, all through segment.Merge and one swap
// (mergeSegments):
//
//   - A freeze moves the active segment into the tier under the shard lock:
//     one list header per term and the docID set, zero posting copies, no
//     pause for readers beyond the lock handoff.
//   - When more than Config.MaxSegments segments sit beside the largest one
//     (the installed or fully compacted segment in steady state), a
//     size-tiered merge coalesces only the smallest, off-lock, against
//     tombstone snapshots; tombstones added mid-merge are re-applied at swap
//     time. Write amplification is bounded by merge fan-in instead of
//     corpus size.
//   - A full compaction (Compact, or the background escalation once the
//     largest segment's tombstones reach rebuildTombFactor ×
//     CompactThreshold) merges every segment into one, with the build
//     parallelism Install runs.
//
// Merges build their output with the one list builder Install runs
// (segment.Merge). The visible document set is unchanged by freezes and
// merges, which is why none of them bump the cache generation; they only
// move postings between raw segments, so none bumps the stats epoch either.
// Every change of the frozen tier reaches the pair cache (e.pairs.replace)
// under the shard lock: a freeze or merge registers its new segment, and a
// merge's swap drops its inputs' cached pairs with them.
type shard struct {
	mu     sync.RWMutex
	segs   []*segment.Frozen
	active *segment.Mutable

	compacting bool // claimed by at most one compaction goroutine
	retired    bool // set (before the swap) by Install replacing this shard
}

// appendSeg adds f to the tier unless it holds no document, reporting
// whether it did: a shard keeps no empty segment. Caller holds s.mu or owns
// s exclusively.
func (s *shard) appendSeg(f *segment.Frozen) bool {
	if f.NumDocs() == 0 {
		return false
	}
	s.segs = append(s.segs, f)
	return true
}

// largestLocked returns the index of the segment holding the most postings
// (the oldest on a tie) — the installed or fully compacted segment in
// steady state — or -1 when the tier has none. Caller holds s.mu.
func (s *shard) largestLocked() int {
	big := -1
	for i, f := range s.segs {
		if big < 0 || f.NumPostings() > s.segs[big].NumPostings() {
			big = i
		}
	}
	return big
}

// liveLocked counts the distinct visible documents of the shard. The
// one-visible-segment invariant makes this exact arithmetic: every segment's
// tombstone filter is a subset of its own document set. Caller holds s.mu.
func (s *shard) liveLocked() int {
	live := s.active.NumDocs()
	for _, f := range s.segs {
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
	for _, f := range s.segs {
		if f.Visible(docID) {
			return true
		}
	}
	return false
}

// addTombLocked tombstones docID in every frozen segment that holds a copy,
// preserving the one-visible-segment invariant. Caller holds s.mu.
func (s *shard) addTombLocked(docID uint32) {
	for _, f := range s.segs {
		f.AddTomb(docID)
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
// version (frozen or active) is superseded. Duplicate and empty terms are
// ignored; a list with no usable term at all returns ErrNoTerms. The index
// generation is bumped, so stale cached results are never served. Returns
// ErrNotBuilt before the first Install.
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
		go e.compactShard(s)
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
		// Nothing is visible to suppress: any frozen copy is already
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
		go e.compactShard(s)
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

// rebuildTombFactor escalates a background compaction to a full one once
// the largest segment's tombstone filter reaches this multiple of the
// compaction threshold: size-tiered merges leave that segment alone, so only
// a full compaction purges its tombstones, and past this point the
// per-query subtraction outweighs the full compaction's amortized cost.
const rebuildTombFactor = 4

// defaultMaxSegments bounds the segments beside the largest one when
// Config.MaxSegments is 0.
const defaultMaxSegments = 4

func (e *Engine) maxSegments() int {
	if e.cfg.MaxSegments > 0 {
		return e.cfg.MaxSegments
	}
	return defaultMaxSegments
}

// overTierLocked reports whether more than MaxSegments segments sit beside
// s's largest one, the point a size-tiered merge runs. Caller holds s.mu.
func (e *Engine) overTierLocked(s *shard) bool {
	return len(s.segs) > e.maxSegments()+1
}

// escalateLocked reports whether s's largest segment carries enough
// tombstones to warrant a full compaction. Caller holds s.mu.
func (e *Engine) escalateLocked(s *shard) bool {
	big := s.largestLocked()
	return e.cfg.CompactThreshold > 0 && big >= 0 &&
		len(s.segs[big].Tombs()) >= rebuildTombFactor*e.cfg.CompactThreshold
}

// wantsCompactLocked claims a background compaction for s when the
// configured threshold is crossed. Caller holds s.mu; when it returns true
// the caller must spawn compactShard(s) after unlocking.
func (e *Engine) wantsCompactLocked(s *shard) bool {
	if e.cfg.CompactThreshold <= 0 || s.compacting || s.retired {
		return false
	}
	if s.active.NumPostings() < e.cfg.CompactThreshold && !e.escalateLocked(s) && !e.overTierLocked(s) {
		return false
	}
	s.compacting = true
	return true
}

// Compact synchronously merges every shard's whole tier (frozen segments,
// the active segment, tombstones) into one segment — the same parallel
// build Install runs — and swaps it in per shard. Queries keep running
// throughout and the visible document set is unchanged, so the result
// cache stays valid. Shards already being compacted in the background, and
// shards already compact (at most one segment, no tombstones, an empty
// active segment), are skipped. Returns ErrNotBuilt before the first
// Install.
func (e *Engine) Compact() error {
	shards := e.snapshot()
	if shards == nil {
		return ErrNotBuilt
	}
	for _, s := range shards {
		s.mu.Lock()
		if s.compacting || s.retired ||
			(s.active.NumDocs() == 0 && len(s.segs) <= 1 && (len(s.segs) == 0 || len(s.segs[0].Tombs()) == 0)) {
			s.mu.Unlock()
			continue
		}
		s.compacting = true
		inputs, snaps := e.fullInputsLocked(s)
		s.mu.Unlock()
		e.mergeSegments(s, inputs, snaps, true)
	}
	return nil
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
	f := s.active.Freeze()
	s.segs = append(s.segs, f)
	s.active = segment.NewMutable()
	e.pairs.replace(nil, f)
	e.met.segmentFreezes.Inc()
}

// fullInputsLocked freezes s's active segment and returns every segment
// with a snapshot of its tombstone filter: the inputs of a full
// compaction. Caller holds s.mu and has claimed s.compacting.
func (e *Engine) fullInputsLocked(s *shard) ([]*segment.Frozen, [][]uint32) {
	e.freezeActiveLocked(s)
	inputs := slices.Clone(s.segs)
	return inputs, tombSnaps(inputs)
}

// tombSnaps snapshots each segment's tombstone filter for an off-lock
// merge. Caller holds the owning shard's lock.
func tombSnaps(segs []*segment.Frozen) [][]uint32 {
	snaps := make([][]uint32, len(segs))
	for i, f := range segs {
		snaps[i] = sets.Clone(f.Tombs())
	}
	return snaps
}

// MergeSegments synchronously runs size-tiered merge passes on every shard
// until at most Config.MaxSegments segments sit beside its largest one
// (shards with a claimed background compaction are skipped). Exposed for
// tests and tooling; the background compaction path merges on its own.
// Returns ErrNotBuilt before the first Install.
func (e *Engine) MergeSegments() error {
	shards := e.snapshot()
	if shards == nil {
		return ErrNotBuilt
	}
	for _, s := range shards {
		for {
			s.mu.Lock()
			if s.compacting || s.retired || !e.overTierLocked(s) {
				s.mu.Unlock()
				break
			}
			s.compacting = true
			victims, snaps := s.pickMergeLocked(e.maxSegments())
			s.mu.Unlock()
			e.mergeSegments(s, victims, snaps, false)
		}
	}
	return nil
}

// compactShard is the background compaction job: it freezes the active
// segment, then runs a full compaction (tombstone escalation), a
// size-tiered merge (more than MaxSegments segments beside the largest) or
// stops after the freeze. The caller must have claimed s.compacting under
// s.mu; the claim is released on every path.
func (e *Engine) compactShard(s *shard) {
	s.mu.Lock()
	if s.retired {
		s.compacting = false
		s.mu.Unlock()
		return
	}
	e.freezeActiveLocked(s)
	if e.escalateLocked(s) {
		inputs, snaps := e.fullInputsLocked(s)
		s.mu.Unlock()
		e.mergeSegments(s, inputs, snaps, true) // claim carries over
		return
	}
	var victims []*segment.Frozen
	var snaps [][]uint32
	if e.overTierLocked(s) {
		victims, snaps = s.pickMergeLocked(e.maxSegments())
	}
	if victims == nil {
		s.compacting = false
		s.mu.Unlock()
		e.met.compactions.Inc()
		return
	}
	s.mu.Unlock()
	e.mergeSegments(s, victims, snaps, false)
	e.met.compactions.Inc()
}

// pickMergeLocked selects the victims of one size-tiered pass among the
// segments beside the largest one: the smallest first — enough to bring
// the tier back under maxSegs beside it — extended while the next-larger
// segment is no bigger than twice the payload merged so far. Merging
// small-into-small is what bounds write amplification: a large segment is
// only rewritten when its peers have grown to its scale, and the largest
// only by a full compaction. Returns the victims plus a snapshot of each
// one's tombstone filter (the merge runs off-lock against the snapshots).
// Caller holds s.mu and has claimed s.compacting.
func (s *shard) pickMergeLocked(maxSegs int) ([]*segment.Frozen, [][]uint32) {
	big := s.largestLocked()
	bySize := make([]*segment.Frozen, 0, len(s.segs))
	for i, f := range s.segs {
		if i != big {
			bySize = append(bySize, f)
		}
	}
	sort.Slice(bySize, func(i, j int) bool { return bySize[i].NumPostings() < bySize[j].NumPostings() })
	need := max(2, len(bySize)-maxSegs+1)
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
	return victims, tombSnaps(victims)
}

// mergeSegments is the one merge swap. It coalesces inputs into one segment
// off-lock (segment.Merge) and swaps it into s's tier in their place,
// re-applying tombstones recorded after the snapshots and releasing the
// compaction claim. Inputs keep serving queries until the swap; their lists
// are immutable, so the off-lock merge reads them safely against the
// tombstone snapshots. A full compaction (full = true: every segment, the
// active one frozen first) builds with the per-shard build parallelism, a
// size-tiered merge with one worker; neither bumps the stats epoch.
func (e *Engine) mergeSegments(s *shard, inputs []*segment.Frozen, snaps [][]uint32, full bool) {
	workers := 1
	if full {
		workers = e.shardWorkers()
	}
	merged := segment.Merge(inputs, snaps, workers)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = false
	if s.retired {
		return // replaced mid-merge: the shard will never serve again
	}
	// Deletes that landed between snapshot and swap tombstoned the inputs;
	// re-apply them to the merged segment (AddTomb skips documents the merge
	// already dropped).
	for i, in := range inputs {
		for _, id := range sets.Difference(in.Tombs(), snaps[i]) {
			merged.AddTomb(id)
		}
	}
	// Segments that were not inputs — a tiered merge's non-victims, or ones
	// frozen after the snapshot by a concurrent FreezeActive — stay, in
	// order, ahead of the merged segment.
	kept := s.segs[:0]
	for _, f := range s.segs {
		if !slices.Contains(inputs, f) {
			kept = append(kept, f)
		}
	}
	clear(s.segs[len(kept):]) // drop trailing refs so merged-away segments free
	s.segs = kept
	if s.appendSeg(merged) {
		e.pairs.replace(inputs, merged)
	} else {
		e.pairs.replace(inputs)
	}
	e.met.compactionBytes.Add(4 * uint64(merged.NumPostings()))
	if full {
		e.met.compactions.Inc()
	} else {
		e.met.segmentMerges.Inc()
	}
}

// evalSegments evaluates a physical plan against one shard's tier: every
// frozen segment, then the active one, through the same evaluator (evalOp),
// each result minus its segment's tombstone filter, all combined with one
// k-way union. Ownership rules match evalOp: the returned slice either
// aliases segment memory (owned = false, read-only) or is backed by a
// context buffer (owned = true).
//
// The shard read lock is held for the whole evaluation; mutations, freezes
// and merge swaps therefore see shard state atomically. Frozen lists are
// immutable, so per-segment results may alias them even after the lock is
// released; active-segment results are copied under the lock. A tier of one
// segment with an empty active one — the steady state after Install — takes
// no frame and no union, keeping its queries allocation-free.
func (e *Engine) evalSegments(c *execCtx, s *shard, p *plan.Plan) ([]uint32, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.segs) == 1 && s.active.NumDocs() == 0 {
		return e.evalFrozen(c, s.segs[0], p)
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
	for _, fz := range s.segs {
		res, resOwned, err := e.evalFrozen(c, fz, p)
		if err != nil {
			c.releaseFrame(f)
			return nil, false, err
		}
		push(res, resOwned)
	}
	if s.active.NumDocs() > 0 {
		res, resOwned, err := e.evalOp(c, source{active: s.active}, p, p.Root())
		if err != nil {
			c.releaseFrame(f)
			return nil, false, err
		}
		if !resOwned && len(res) > 0 {
			// An unowned active-segment result aliases a live list, which a
			// mutation may shift in place the moment the shard lock is
			// released — unlike frozen lists, which stay immutable. Copy
			// into a context buffer while still under the lock.
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

// evalFrozen evaluates p against one frozen segment, minus its tombstone
// filter, under evalOp's ownership rules.
func (e *Engine) evalFrozen(c *execCtx, fz *segment.Frozen, p *plan.Plan) ([]uint32, bool, error) {
	docs, owned, err := e.evalOp(c, source{seg: fz}, p, p.Root())
	if err != nil {
		return nil, false, err
	}
	docs, owned = c.minusTombs(docs, owned, fz.Tombs())
	return docs, owned, nil
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
