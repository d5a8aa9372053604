package compress

import (
	"sync"

	"fastintersect/internal/bitseg"
	"fastintersect/internal/bitword"
	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

// scratch is the pooled per-call workspace of the stored-list kernels:
// operand orderings and the decode/merge buffers that IntersectStored,
// IntersectLookup, IntersectRGS and the filter paths previously allocated
// fresh on every call. One scratch serves one call at a time; the package
// pool hands them out so concurrent queries each get their own.
type scratch struct {
	ord   []*Stored
	lls   []*LookupList // intersectLookupInto's cost-ordered "others"
	llsIn []*LookupList // IntersectStoredInto's assembled operand list
	bits  []*bitseg.List
	ops   []plan.Operand
	bufA  []uint32
	bufB  []uint32
	bufC  []uint32
	probe *sets.BitProbeWindow // BitProbe's window, allocated on first use; all zero between runs
}

// scratchBufCap sizes the decode buffers for the common shapes: a γ/δ
// bucket holds ≈ DefaultStoredBucket elements and an RGS group ≈ √w, so a
// few of either fit without growth.
const scratchBufCap = 4 * (bitword.SqrtW + DefaultStoredBucket)

var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		bufA: make([]uint32, 0, scratchBufCap),
		bufB: make([]uint32, 0, scratchBufCap),
		bufC: make([]uint32, 0, scratchBufCap),
	}
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool, dropping operand references so a
// pooled scratch never pins stored lists (or a swapped-out index
// generation) in memory.
func putScratch(sc *scratch) {
	clear(sc.ord)
	clear(sc.lls)
	clear(sc.llsIn)
	clear(sc.bits)
	scratchPool.Put(sc)
}
