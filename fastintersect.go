package fastintersect

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"fastintersect/internal/baseline"
	"fastintersect/internal/bitseg"
	"fastintersect/internal/core"
	"fastintersect/internal/sets"
)

// DefaultSeed derives the default hash family. All lists preprocessed with
// the same seed are mutually intersectable.
const DefaultSeed uint64 = 0xFA57_1D5E_C7AA_11CE

// DefaultHashImages is the default m for RanGroupScan (the paper's m = 4
// for two-set workloads; see WithHashImages to change it).
const DefaultHashImages = 4

// Options configures preprocessing.
type Options struct {
	seed      uint64
	m         int
	allWidths bool
}

// Option mutates preprocessing options.
type Option func(*Options)

// WithSeed selects the hash-family seed. Lists are intersectable iff their
// seeds match.
func WithSeed(seed uint64) Option { return func(o *Options) { o.seed = seed } }

// WithHashImages sets m, the number of word images per group used by
// RanGroupScan's filter (1 ≤ m ≤ 16). More images filter more empty group
// pairs at the cost of m words per group of space.
func WithHashImages(m int) Option { return func(o *Options) { o.m = m } }

// WithAllWidths additionally builds the power-of-two multi-resolution
// layers enabling IntGroupOpt (§A.1.1). Costs additional O(n) space.
func WithAllWidths() Option { return func(o *Options) { o.allWidths = true } }

// OptionsSeed resolves the hash-family seed an option list selects
// (DefaultSeed when none is set), so grouped structures built outside this
// package — internal/compress's Lowbits lists, say — can share one hash
// family with the library's lists.
func OptionsSeed(opts ...Option) uint64 {
	o := Options{seed: DefaultSeed}
	for _, f := range opts {
		f(&o)
	}
	return o.seed
}

// families caches hash families so lists built independently with the same
// seed share pointer-identical functions.
var (
	familyMu sync.Mutex
	families = map[uint64]*core.Family{}
)

func familyFor(seed uint64) *core.Family {
	familyMu.Lock()
	defer familyMu.Unlock()
	if f, ok := families[seed]; ok {
		return f
	}
	f := core.NewFamily(seed, core.MaxImageCount)
	families[seed] = f
	return f
}

// List is a preprocessed set. The per-algorithm structures (RanGroupScan
// blocks, RanGroup index, HashBin permutation order, baseline structures)
// are built lazily on first use and cached; Preprocess itself only sorts
// and validates.
type List struct {
	set  []uint32
	opts Options
	fam  *core.Family

	mu     sync.Mutex
	ig     *core.IntGroupList
	igOpt  *core.IntGroupList
	rg     *core.RanGroupList
	rgs    *core.RanGroupScanList
	hb     *core.HashBinList
	hash   *baseline.HashSet
	skip   *baseline.SkipList
	lookup *baseline.Lookup
	bpp    *baseline.BPP
	bseg   *bitseg.List
}

// Preprocess validates and preprocesses a set of document IDs. The input
// must be strictly increasing; use PreprocessUnsorted for arbitrary input.
func Preprocess(set []uint32, opts ...Option) (*List, error) {
	o := Options{seed: DefaultSeed, m: DefaultHashImages}
	for _, f := range opts {
		f(&o)
	}
	if o.m < 1 || o.m > core.MaxImageCount {
		return nil, fmt.Errorf("fastintersect: m = %d out of range [1, %d]", o.m, core.MaxImageCount)
	}
	if err := sets.Validate(set); err != nil {
		return nil, fmt.Errorf("fastintersect: %w", err)
	}
	l := &List{set: append([]uint32(nil), set...), opts: o, fam: familyFor(o.seed)}
	return l, nil
}

// PreprocessUnsorted sorts and deduplicates ids before preprocessing.
func PreprocessUnsorted(ids []uint32, opts ...Option) (*List, error) {
	return Preprocess(sets.SortDedup(append([]uint32(nil), ids...)), opts...)
}

// Len returns the number of elements.
func (l *List) Len() int { return len(l.set) }

// Set returns the sorted elements. The slice is shared; do not modify.
func (l *List) Set() []uint32 { return l.set }

// Seed returns the hash-family seed the list was built with.
func (l *List) Seed() uint64 { return l.opts.seed }

// Span returns one past the largest document ID (0 for an empty list) —
// the universe extent the planner's bitmap-tier costing needs.
func (l *List) Span() int {
	if len(l.set) == 0 {
		return 0
	}
	return int(l.set[len(l.set)-1]) + 1
}

// Structure accessors: build-once, cached. Preprocessing failures cannot
// occur here because the set was validated in Preprocess.

func (l *List) ranGroupScan() *core.RanGroupScanList {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rgs == nil {
		l.rgs, _ = core.NewRanGroupScanList(l.fam, l.set, l.opts.m)
	}
	return l.rgs
}

func (l *List) ranGroup() *core.RanGroupList {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rg == nil {
		l.rg, _ = core.NewRanGroupList(l.fam, l.set)
	}
	return l.rg
}

func (l *List) intGroup() *core.IntGroupList {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ig == nil {
		l.ig, _ = core.NewIntGroupList(l.fam, l.set, false)
	}
	return l.ig
}

func (l *List) intGroupOpt() *core.IntGroupList {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.igOpt == nil {
		l.igOpt, _ = core.NewIntGroupList(l.fam, l.set, true)
	}
	return l.igOpt
}

func (l *List) hashBin() *core.HashBinList {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hb == nil {
		l.hb, _ = core.NewHashBinList(l.fam, l.set)
	}
	return l.hb
}

func (l *List) hashSet() *baseline.HashSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hash == nil {
		l.hash = baseline.NewHashSet(l.set)
	}
	return l.hash
}

func (l *List) skipList() *baseline.SkipList {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.skip == nil {
		l.skip = baseline.NewSkipList(l.set)
	}
	return l.skip
}

func (l *List) lookupStruct() *baseline.Lookup {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lookup == nil {
		var maxID uint32
		if len(l.set) > 0 {
			maxID = l.set[len(l.set)-1]
		}
		w := baseline.AutoBucketWidth(maxID, len(l.set), baseline.DefaultBucketSize)
		l.lookup = baseline.NewLookup(l.set, w)
	}
	return l.lookup
}

func (l *List) bppStruct() *baseline.BPP {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bpp == nil {
		l.bpp = baseline.NewBPP(l.set)
	}
	return l.bpp
}

func (l *List) bitsegStruct() *bitseg.List {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bseg == nil {
		l.bseg, _ = bitseg.FromSorted(l.set)
	}
	return l.bseg
}

// ErrNoLists is returned when Intersect is called without lists.
var ErrNoLists = errors.New("fastintersect: no lists given")

// Intersect computes the intersection with the Auto algorithm. The result
// order is algorithm-dependent; see IntersectSorted.
func Intersect(lists ...*List) ([]uint32, error) {
	return IntersectWith(Auto, lists...)
}

// IntersectSorted computes the intersection and returns ascending IDs.
func IntersectSorted(lists ...*List) ([]uint32, error) {
	out, err := IntersectWith(Auto, lists...)
	if err != nil {
		return nil, err
	}
	sets.SortU32(out)
	return out, nil
}

// IntersectWith computes the intersection with a specific algorithm. The
// result is always a fresh slice. Transient workspace comes from the
// package's ExecContext pool; callers issuing many queries can hold a
// context themselves and use IntersectInto / IntersectWithBuf to avoid
// allocating results too.
func IntersectWith(algo Algorithm, lists ...*List) ([]uint32, error) {
	ctx := GetExecContext()
	out, err := IntersectInto(ctx, nil, algo, lists...)
	ctx.Release()
	return out, err
}

// IntersectParallel computes the intersection with RanGroupScan split
// across `workers` goroutines (0 = GOMAXPROCS): the multi-core extension
// noted as orthogonal in the paper's §2.
func IntersectParallel(workers int, lists ...*List) ([]uint32, error) {
	if len(lists) == 0 {
		return nil, ErrNoLists
	}
	for _, l := range lists[1:] {
		if l.opts.seed != lists[0].opts.seed {
			return nil, fmt.Errorf("fastintersect: lists preprocessed with different seeds")
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rgs := make([]*core.RanGroupScanList, len(lists))
	for i, l := range lists {
		rgs[i] = l.ranGroupScan()
	}
	return core.IntersectRanGroupScanParallel(workers, rgs...), nil
}

// autoPick implements the Auto policy.
func autoPick(lists []*List) Algorithm {
	minN, maxN := lists[0].Len(), lists[0].Len()
	for _, l := range lists[1:] {
		if l.Len() < minN {
			minN = l.Len()
		}
		if l.Len() > maxN {
			maxN = l.Len()
		}
	}
	if minN == 0 {
		return Merge // trivially empty; avoid building structures
	}
	if maxN >= AutoSkewThreshold*minN {
		return HashBin
	}
	return RanGroupScan
}
