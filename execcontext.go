package fastintersect

import (
	"fmt"
	"sync"

	"fastintersect/internal/baseline"
	"fastintersect/internal/bitseg"
	"fastintersect/internal/core"
	"fastintersect/internal/sets"
)

// ExecContext owns all per-query scratch of the intersection API: the core
// kernels' workspaces (operand orderings, memoized prefix ANDs, merge
// buffers) and an internal result buffer. Acquire one with GetExecContext,
// thread it through any number of IntersectInto / IntersectWithBuf calls,
// and Release it back to the package pool; steady state, a warm context
// executes cached-structure intersections with zero allocations.
//
// An ExecContext is not safe for concurrent use — concurrent queries must
// each acquire their own. The zero value is ready to use for callers that
// prefer to manage lifetimes themselves (e.g. one long-lived context per
// worker goroutine) instead of the pool.
type ExecContext struct {
	sc      core.Scratch
	rgs     []*core.RanGroupScanList
	rg      []*core.RanGroupList
	hb      []*core.HashBinList
	ordered []*List
	raw     [][]uint32
	tables  []*baseline.HashSet
	skips   []*baseline.SkipList
	lookups []*baseline.Lookup
	bpps    []*baseline.BPP
	bsegs   []*bitseg.List
	buf     []uint32
	chain   [2][]uint32          // BitProbe's pairwise chain over three or more lists
	probe   *sets.BitProbeWindow // BitProbe's window, allocated on first use
}

var execPool = sync.Pool{New: func() any { return new(ExecContext) }}

// GetExecContext returns a context from the package pool.
func GetExecContext() *ExecContext { return execPool.Get().(*ExecContext) }

// Release returns the context to the pool. Slices previously returned by
// IntersectWithBuf on this context are invalidated: a later query may
// overwrite their backing array. Operand references are dropped so a pooled
// context never pins preprocessed lists in memory.
func (c *ExecContext) Release() {
	c.Reset()
	execPool.Put(c)
}

// Reset drops the context's operand references (so it pins nothing) while
// keeping its buffers for reuse. Callers that own a long-lived context —
// rather than borrowing one from the pool — should Reset it between
// queries whose operands may die (e.g. across an index rebuild).
//
// Each slice is cleared over its full capacity: grow reslices down for
// narrower calls, so pointers written by an earlier wider call survive
// past the current length and would otherwise pin a retired index
// generation.
func (c *ExecContext) Reset() {
	clear(c.rgs[:cap(c.rgs)])
	clear(c.rg[:cap(c.rg)])
	clear(c.hb[:cap(c.hb)])
	clear(c.ordered[:cap(c.ordered)])
	clear(c.raw[:cap(c.raw)])
	clear(c.tables[:cap(c.tables)])
	clear(c.skips[:cap(c.skips)])
	clear(c.lookups[:cap(c.lookups)])
	clear(c.bpps[:cap(c.bpps)])
	clear(c.bsegs[:cap(c.bsegs)])
}

// grow returns s resized to k reusing its capacity.
func grow[T any](s []T, k int) []T {
	if cap(s) < k {
		return make([]T, k)
	}
	return s[:k]
}

// IntersectWithBuf computes the intersection with a specific algorithm into
// the context's internal buffer and returns a slice aliasing it. The result
// is valid until the context's next IntersectWithBuf/IntersectInto call or
// Release — callers that keep it must copy. This is the zero-allocation
// form of IntersectWith.
func IntersectWithBuf(ctx *ExecContext, algo Algorithm, lists ...*List) ([]uint32, error) {
	if ctx == nil {
		return IntersectWith(algo, lists...)
	}
	out, err := IntersectInto(ctx, ctx.buf[:0], algo, lists...)
	if err != nil {
		return nil, err
	}
	ctx.buf = out
	return out, nil
}

// IntersectInto computes the intersection with a specific algorithm,
// appending the result to dst (which must not alias any operand) and
// returning the extended slice. All transient workspace comes from ctx, so
// steady-state calls allocate only if the result outgrows dst. A nil dst
// yields a fresh result slice; a nil ctx draws one from the pool for the
// duration of the call.
func IntersectInto(ctx *ExecContext, dst []uint32, algo Algorithm, lists ...*List) ([]uint32, error) {
	if ctx == nil {
		ctx = GetExecContext()
		defer ctx.Release()
	}
	if len(lists) == 0 {
		return nil, ErrNoLists
	}
	for _, l := range lists[1:] {
		if l.opts.seed != lists[0].opts.seed {
			return nil, fmt.Errorf("fastintersect: lists preprocessed with different seeds (%#x vs %#x)",
				lists[0].opts.seed, l.opts.seed)
		}
	}
	if mx := algo.MaxSets(); mx > 0 && len(lists) > mx {
		return nil, fmt.Errorf("fastintersect: %v supports at most %d sets, got %d", algo, mx, len(lists))
	}
	if len(lists) == 1 {
		return append(dst, lists[0].set...), nil
	}
	if algo == Auto {
		algo = autoPick(lists)
	}
	switch algo {
	case RanGroupScan:
		ctx.rgs = grow(ctx.rgs, len(lists))
		for i, l := range lists {
			ctx.rgs[i] = l.ranGroupScan()
		}
		return core.IntersectRanGroupScanInto(dst, &ctx.sc, ctx.rgs...), nil
	case RanGroup:
		ctx.rg = grow(ctx.rg, len(lists))
		for i, l := range lists {
			ctx.rg[i] = l.ranGroup()
		}
		return core.IntersectRanGroupInto(dst, &ctx.sc, ctx.rg...), nil
	case IntGroup:
		return appendOrAdopt(dst, core.IntersectIntGroup(lists[0].intGroup(), lists[1].intGroup())), nil
	case IntGroupOpt:
		return appendOrAdopt(dst, core.IntersectIntGroupOptimal(lists[0].intGroupOpt(), lists[1].intGroupOpt())), nil
	case HashBin:
		ctx.hb = grow(ctx.hb, len(lists))
		for i, l := range lists {
			ctx.hb[i] = l.hashBin()
		}
		return core.IntersectHashBinInto(dst, &ctx.sc, ctx.hb...), nil
	case Merge:
		if len(lists) == 2 {
			// Two sorted sets merge straight into dst — the query planner's
			// dominant shape stays on the zero-allocation path.
			return sets.IntersectInto(dst, lists[0].set, lists[1].set), nil
		}
		return appendOrAdopt(dst, baseline.Merge(ctx.rawSets(lists)...)), nil
	case Hash:
		ordered := ctx.bySize(lists)
		ctx.tables = grow(ctx.tables, len(ordered)-1)
		for i, l := range ordered[1:] {
			ctx.tables[i] = l.hashSet()
		}
		return appendOrAdopt(dst, baseline.HashIntersect(ordered[0].set, ctx.tables...)), nil
	case SkipList:
		ordered := ctx.bySize(lists)
		ctx.skips = grow(ctx.skips, len(ordered)-1)
		for i, l := range ordered[1:] {
			ctx.skips[i] = l.skipList()
		}
		return appendOrAdopt(dst, baseline.SkipIntersect(ordered[0].set, ctx.skips...)), nil
	case SvS:
		if len(lists) == 2 {
			// Gallop the smaller set through the larger straight into dst
			// (same algorithm, no intermediate slice).
			return sets.IntersectGallopInto(dst, lists[0].set, lists[1].set), nil
		}
		return appendOrAdopt(dst, baseline.SvS(ctx.rawSets(lists)...)), nil
	case Adaptive:
		return appendOrAdopt(dst, baseline.Adaptive(ctx.rawSets(lists)...)), nil
	case BaezaYates:
		return appendOrAdopt(dst, baseline.BaezaYates(ctx.rawSets(lists)...)), nil
	case SmallAdaptive:
		return appendOrAdopt(dst, baseline.SmallAdaptive(ctx.rawSets(lists)...)), nil
	case Lookup:
		ordered := ctx.bySize(lists)
		ctx.lookups = grow(ctx.lookups, len(ordered)-1)
		for i, l := range ordered[1:] {
			ctx.lookups[i] = l.lookupStruct()
		}
		return appendOrAdopt(dst, baseline.LookupIntersect(ordered[0].set, ctx.lookups...)), nil
	case BPP:
		ctx.bpps = grow(ctx.bpps, len(lists))
		for i, l := range lists {
			ctx.bpps[i] = l.bppStruct()
		}
		return appendOrAdopt(dst, baseline.IntersectBPP(ctx.bpps...)), nil
	case Bitseg:
		ctx.bsegs = grow(ctx.bsegs, len(lists))
		for i, l := range lists {
			ctx.bsegs[i] = l.bitsegStruct()
		}
		return bitseg.IntersectKInto(dst, ctx.bsegs...), nil
	case BitProbe:
		return ctx.bitProbe(dst, lists), nil
	default:
		return nil, fmt.Errorf("fastintersect: unknown algorithm %d", int(algo))
	}
}

// appendOrAdopt appends res to dst, adopting res outright when dst is nil
// (the baseline algorithms return fresh slices, so no copy is needed).
func appendOrAdopt(dst, res []uint32) []uint32 {
	if dst == nil {
		return res
	}
	return append(dst, res...)
}

// bitProbe appends the intersection of lists to dst with the bitmap probe:
// two lists straight into dst, more pairwise from the smallest,
// ping-ponging between the context's chain buffers.
func (c *ExecContext) bitProbe(dst []uint32, lists []*List) []uint32 {
	if c.probe == nil {
		c.probe = new(sets.BitProbeWindow)
	}
	if len(lists) == 2 {
		return sets.IntersectBitProbeInto(dst, lists[0].set, lists[1].set, c.probe)
	}
	ordered := c.bySize(lists)
	cur := sets.IntersectBitProbeInto(c.chain[0][:0], ordered[0].set, ordered[1].set, c.probe)
	spare := c.chain[1]
	for _, l := range ordered[2:] {
		cur, spare = sets.IntersectBitProbeInto(spare[:0], cur, l.set, c.probe), cur
	}
	c.chain[0], c.chain[1] = cur, spare
	return append(dst, cur...)
}

// rawSets extracts the sorted element slices into the context's slice.
func (c *ExecContext) rawSets(lists []*List) [][]uint32 {
	c.raw = grow(c.raw, len(lists))
	for i, l := range lists {
		c.raw[i] = l.set
	}
	return c.raw
}

// bySize returns lists ordered by ascending length in the context's slice.
func (c *ExecContext) bySize(lists []*List) []*List {
	c.ordered = grow(c.ordered, len(lists))
	copy(c.ordered, lists)
	out := c.ordered
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Len() < out[j-1].Len(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
