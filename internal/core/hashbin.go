package core

import (
	"fmt"

	"fastintersect/internal/sets"
	"fastintersect/internal/xhash"
)

// HashBinList is the preprocessed form of a set for the HashBin algorithm
// of §3.4: the elements ordered by the random permutation g. Because every
// prefix bucket L^z = {x : gt(x) = z} is a contiguous interval of this
// order for ANY resolution t (§A.6.1), the structure is the simplified
// multi-resolution structure — the g-sorted array itself, with group
// boundaries recovered by binary search on the stored g values. Theorem
// 3.11: O(n) space, O(n log n) preprocessing, and two-set intersection in
// expected O(n1·log(n2/n1)).
type HashBinList struct {
	fam   *Family
	elems []uint32 // ordered by g(x)
	gvals []uint32 // g(x), ascending
}

// NewHashBinList preprocesses a sorted set.
func NewHashBinList(fam *Family, set []uint32) (*HashBinList, error) {
	if err := sets.Validate(set); err != nil {
		return nil, fmt.Errorf("core: HashBin preprocessing: %w", err)
	}
	l := &HashBinList{fam: fam}
	n := len(set)
	l.elems = make([]uint32, n)
	l.gvals = make([]uint32, n)
	copy(l.elems, set)
	for i, x := range l.elems {
		l.gvals[i] = fam.Perm.Apply(x)
	}
	RadixSortPairs(l.gvals, l.elems)
	return l, nil
}

// Len returns the number of elements.
func (l *HashBinList) Len() int { return len(l.elems) }

// Family returns the list's hash family.
func (l *HashBinList) Family() *Family { return l.fam }

// SizeWords returns the structure's footprint in 64-bit machine words.
func (l *HashBinList) SizeWords() int { return len(l.elems)/2 + len(l.gvals)/2 }

// bucketFrom returns the index range [lo, hi) of the prefix bucket z at
// resolution t, galloping forward from index from, which must not lie past
// the bucket's start. Buckets are visited in ascending z, so each search
// resumes where the previous bucket ended, and a list of n₂ elements pays
// O(log(n₂/n₁)) per bucket of the n₁-element list rather than O(log n₂).
func (l *HashBinList) bucketFrom(from int, z uint32, t uint) (lo, hi int) {
	if t == 0 {
		return from, len(l.gvals)
	}
	lo = gallopG(l.gvals, from, z<<(32-t))
	if z == 1<<t-1 {
		return lo, len(l.gvals)
	}
	return lo, gallopG(l.gvals, lo, (z+1)<<(32-t))
}

// gallopG returns the first index i ≥ from with g[i] ≥ key (len(g) if
// none): an exponential search from from, then a binary search over the
// last step, so the cost is logarithmic in the distance covered.
func gallopG(g []uint32, from int, key uint32) int {
	lo, hi, step := from, from, 1
	for hi < len(g) && g[hi] < key {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	return lowerBoundG(g, lo, min(hi, len(g)), key)
}

// lowerBoundG returns the first index i in [lo, hi) with g[i] ≥ key (hi if
// none), by binary search.
func lowerBoundG(g []uint32, lo, hi int, key uint32) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntersectHashBin computes the intersection of k ≥ 1 lists with HashBin:
// partition every set at t = ⌈log n1⌉ (n1 = smallest size), and for each
// bucket check every x ∈ L1^z against L2^z, ..., Lk^z by binary search in
// g-space, stopping at the first miss. The result is in permutation order.
func IntersectHashBin(lists ...*HashBinList) []uint32 {
	return IntersectHashBinInto(nil, nil, lists...)
}

// IntersectHashBinInto is IntersectHashBin appending into dst, with all
// per-call workspace drawn from sc (nil for a private one).
func IntersectHashBinInto(dst []uint32, sc *Scratch, lists ...*HashBinList) []uint32 {
	switch len(lists) {
	case 0:
		return dst
	case 1:
		return append(dst, lists[0].elems...)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.hb = scratchSlice(sc.hb, len(lists))
	ordered := sc.hb
	copy(ordered, lists)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].Len() < ordered[j-1].Len(); j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	defer clear(ordered) // do not retain operands in the pooled Scratch
	for _, l := range ordered {
		if !SameFamily(l.fam, ordered[0].fam) {
			panic("core: intersecting lists from different families")
		}
		if l.Len() == 0 {
			return dst
		}
	}
	small := ordered[0]
	t := xhash.CeilLog2(small.Len())
	if t > 32 {
		t = 32
	}
	k := len(ordered)
	sc.los = scratchSlice(sc.los, k)
	sc.his = scratchSlice(sc.his, k)
	los, his := sc.los, sc.his
	clear(his) // each list's search starts at its front
	i := 0
	for i < len(small.gvals) {
		// The small list's bucket starts at i: every earlier element lies
		// in a lower bucket.
		z := xhash.PrefixOf(small.gvals[i], t)
		lo1, hi1 := small.bucketFrom(i, z, t)
		// Locate the matching bucket in every other list once per bucket,
		// resuming after the last bucket located there.
		live := true
		for s := 1; s < k; s++ {
			los[s], his[s] = ordered[s].bucketFrom(his[s], z, t)
			if los[s] == his[s] {
				live = false
				break
			}
		}
		if live {
			for j := lo1; j < hi1; j++ {
				// Elements in a bucket are ordered by g, and g is
				// injective, so finding g(x) is finding x (§A.6.1).
				gv := small.gvals[j]
				ok := true
				for s := 1; s < k; s++ {
					g := ordered[s].gvals
					if p := lowerBoundG(g, los[s], his[s], gv); p == his[s] || g[p] != gv {
						ok = false
						break
					}
				}
				if ok {
					dst = append(dst, small.elems[j])
				}
			}
		}
		i = hi1
	}
	return dst
}
