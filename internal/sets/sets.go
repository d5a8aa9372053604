// Package sets holds the shared sorted-set plumbing: validation, sorting,
// deduplication, and a deliberately simple reference intersection used as
// the ground truth that every algorithm in this repository is tested
// against.
//
// Throughout the repository a set is a strictly increasing []uint32 of
// document IDs, matching the paper's posting-list model.
//
// The *Into variants append to a caller-provided destination slice and are
// the allocation-free building blocks of the query-execution hot path: they
// never retain dst and never allocate beyond growing it.
package sets

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// IsSorted reports whether s is strictly increasing (sorted and duplicate
// free).
func IsSorted(s []uint32) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Validate returns an error describing the first violation of the set
// contract (strictly increasing order), or nil.
func Validate(s []uint32) error {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return fmt.Errorf("sets: not sorted at index %d (%d > %d)", i, s[i-1], s[i])
		}
		if s[i-1] == s[i] {
			return fmt.Errorf("sets: duplicate element %d at index %d", s[i], i)
		}
	}
	return nil
}

// SortDedup sorts s in place and removes duplicates, returning the
// (possibly shorter) slice. It is the canonical way to turn arbitrary IDs
// into a set.
func SortDedup(s []uint32) []uint32 {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Clone returns a copy of s.
func Clone(s []uint32) []uint32 {
	out := make([]uint32, len(s))
	copy(out, s)
	return out
}

// Equal reports whether a and b contain the same elements in the same order.
func Equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Contains reports whether sorted set s contains x, by binary search.
func Contains(s []uint32, x uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// IntersectReference computes the intersection of k sorted sets with a
// straightforward pairwise merge. It makes no performance claims; it exists
// as an obviously-correct oracle for tests and as the seed of the Merge
// baseline's correctness checks.
func IntersectReference(lists ...[]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	out := Clone(lists[0])
	for _, l := range lists[1:] {
		out = intersect2(out, l)
		if len(out) == 0 {
			return out
		}
	}
	return out
}

func intersect2(a, b []uint32) []uint32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// IntersectInto appends the intersection of two sorted sets to dst. Neither
// input may alias dst.
func IntersectInto(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectGallopInto appends the intersection of two sorted sets to dst,
// galloping the smaller set through the larger (exponential probe followed
// by a binary search, resuming where the last match left off). The planner
// picks it over the bitmap probe of IntersectBitProbeInto when the size
// ratio covers the per-probe overhead. Neither input may alias dst.
func IntersectGallopInto(dst, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	j := 0
	for _, x := range a {
		if j = searchFrom(b, j, x); j == len(b) {
			break
		}
		if b[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	return dst
}

// searchFrom returns the smallest index ≥ j whose element of s is ≥ x, or
// len(s): an exponential probe from j, then a binary search.
func searchFrom(s []uint32, j int, x uint32) int {
	lo, hi, step := j, j, 1
	for hi < len(s) && s[hi] < x {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(s))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Union returns the sorted union of two sorted sets as a fresh slice.
func Union(a, b []uint32) []uint32 {
	return UnionInto(make([]uint32, 0, len(a)+len(b)), a, b)
}

// UnionInto appends the sorted union of two sorted sets to dst. Neither
// input may alias dst.
func UnionInto(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// unionKStack bounds the stack-allocated merge state of the sparse path;
// wider sparse unions allocate theirs (the engine's OR fan-in and shard
// count are both small, and its one wide union — an index build's docID
// universe — is dense).
const unionKStack = 16

// UnionKInto appends the sorted union of k sorted sets to dst, each element
// once. No input may alias dst. It is output-sensitive: of the inputs' N
// elements, spanning W 64-bit words from the smallest to the largest, with
// k counting the non-empty lists, it takes
//
//   - the dense path when W ≤ N·⌈log₂ k⌉: set every element's bit in a
//     pooled bitmap, then read the bits back with trailing-zero scans —
//     O(N + W), whatever k is;
//   - the sparse path otherwise: a balanced cascade of two-way merges,
//     ⌈log₂ k⌉ linear passes over at most N elements — O(N log k).
//
// The rule prices one bitmap word read back like one element merged in one
// pass: the two cost about the same, which puts the paths' crossover at
// W ≈ N·⌈log₂ k⌉ (BenchmarkUnionKCrossover times both on either side).
//
// Scratch comes from package-level pools: W words of bitmap on the dense
// path, 2N elements of merge buffers on the sparse path. Warm, neither path
// allocates beyond growing dst, except that a sparse union of more than 16
// non-empty lists allocates O(k) merge state. When dst lacks room for N more
// elements, the dense path counts the union first (a popcount pass) and
// grows dst once, so a fresh dst comes out exactly sized.
func UnionKInto(dst []uint32, lists ...[]uint32) []uint32 {
	n, k, one := 0, 0, -1
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for i, l := range lists {
		if len(l) == 0 {
			continue
		}
		n += len(l)
		k++
		one = i
		lo = min(lo, l[0])
		hi = max(hi, l[len(l)-1])
	}
	switch {
	case k == 0:
		return dst
	case k == 1:
		return append(dst, lists[one]...)
	case unionDense(n, k, lo, hi):
		return unionBitmap(dst, lists, n, lo>>6, int(hi>>6-lo>>6)+1)
	}
	return unionCascade(dst, lists, n, k)
}

// unionDense is UnionKInto's selection rule for k ≥ 2 non-empty lists of n
// elements in all, spanning [lo, hi]: W ≤ N·⌈log₂ k⌉. Word indices are
// taken before subtracting, so the span cannot overflow at MaxUint32.
func unionDense(n, k int, lo, hi uint32) bool {
	return int(hi>>6-lo>>6)+1 <= n*bits.Len(uint(k-1))
}

// unionBitmaps pools the dense path's bitmaps. A pooled bitmap is all zero:
// the read-back clears every word it reads.
var unionBitmaps = sync.Pool{New: func() any { return new([]uint64) }}

// unionBitmap is UnionKInto's dense path: words bitmap words from word
// index base cover every element, and n is the total input length (an
// upper bound on the output).
func unionBitmap(dst []uint32, lists [][]uint32, n int, base uint32, words int) []uint32 {
	p := unionBitmaps.Get().(*[]uint64)
	if cap(*p) < words {
		*p = make([]uint64, words)
	}
	bm := (*p)[:words]
	for _, l := range lists {
		for _, x := range l {
			bm[x>>6-base] |= 1 << (x & 63)
		}
	}
	if cap(dst)-len(dst) < n {
		u := 0
		for _, w := range bm {
			u += bits.OnesCount64(w)
		}
		dst = slices.Grow(dst, u)
	}
	out := dst[len(dst):cap(dst)]
	j := 0
	for i, w := range bm {
		bm[i] = 0
		hi := (base + uint32(i)) << 6
		if c := bits.OnesCount64(w); c <= 4 && j+4 <= len(out) {
			// Sparse word: write four candidates unconditionally and keep
			// the first c, trading stores for the branch mispredictions a
			// data-dependent loop costs at a few bits per word.
			o := out[j : j+4 : j+4]
			o[0] = hi | uint32(bits.TrailingZeros64(w))
			w &= w - 1
			o[1] = hi | uint32(bits.TrailingZeros64(w))
			w &= w - 1
			o[2] = hi | uint32(bits.TrailingZeros64(w))
			w &= w - 1
			o[3] = hi | uint32(bits.TrailingZeros64(w))
			j += c
			continue
		}
		for ; w != 0; w &= w - 1 {
			out[j] = hi | uint32(bits.TrailingZeros64(w))
			j++
		}
	}
	unionBitmaps.Put(p)
	return dst[:len(dst)+j]
}

// unionScratch pools the sparse path's merge buffers.
var unionScratch = sync.Pool{New: func() any { return new([]uint32) }}

// unionCascade is UnionKInto's sparse path: a balanced tree of two-way
// merges over the k ≥ 2 non-empty lists, n elements in all, each level
// one linear pass. Intermediate results ping-pong between the two halves
// of one pooled buffer.
func unionCascade(dst []uint32, lists [][]uint32, n, k int) []uint32 {
	var runArr [unionKStack][]uint32
	runs := runArr[:0]
	if k > unionKStack {
		runs = make([][]uint32, 0, k)
	}
	for _, l := range lists {
		if len(l) > 0 {
			runs = append(runs, l)
		}
	}
	if k == 2 {
		return UnionInto(dst, runs[0], runs[1])
	}
	p := unionScratch.Get().(*[]uint32)
	if cap(*p) < 2*n {
		*p = make([]uint32, 2*n)
	}
	a, b := (*p)[:n], (*p)[n:2*n]
	nl := 0
	for _, r := range runs[:k/2] {
		nl += len(r)
	}
	dst = UnionInto(dst, unionTree(runs[:k/2], a[:nl], b[:nl]), unionTree(runs[k/2:], a[nl:], b[nl:]))
	unionScratch.Put(p)
	return dst
}

// unionTree returns the union of runs: the run itself when there is one,
// otherwise merged into out, with tmp (as long as out) holding the
// subtrees' results.
func unionTree(runs [][]uint32, out, tmp []uint32) []uint32 {
	switch len(runs) {
	case 1:
		return runs[0]
	case 2:
		return UnionInto(out[:0], runs[0], runs[1])
	}
	mid, nl := len(runs)/2, 0
	for _, r := range runs[:mid] {
		nl += len(r)
	}
	return UnionInto(out[:0], unionTree(runs[:mid], tmp[:nl], out[:nl]), unionTree(runs[mid:], tmp[nl:], out[nl:]))
}

// Difference returns the sorted elements of a that are not in b as a fresh
// slice; both inputs must be sorted ascending.
func Difference(a, b []uint32) []uint32 {
	return DifferenceInto(make([]uint32, 0, len(a)), a, b)
}

// DifferenceInto appends the sorted elements of a that are not in b to dst.
// Neither input may alias dst.
func DifferenceInto(dst, a, b []uint32) []uint32 {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		dst = append(dst, x)
	}
	return dst
}

// InsertSorted inserts x into sorted set s, returning the (possibly grown)
// slice and whether x was actually inserted (false: already present). It is
// the point-update primitive of the engine's delta segments, where sets stay
// small between compactions; cost is O(log n) search + O(n) shift.
func InsertSorted(s []uint32, x uint32) ([]uint32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s, true
}

// RemoveSorted removes x from sorted set s, returning the (possibly
// shortened) slice and whether x was present.
func RemoveSorted(s []uint32, x uint32) ([]uint32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i >= len(s) || s[i] != x {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}

// SortU32 sorts a []uint32 ascending in place.
func SortU32(s []uint32) {
	slices.Sort(s)
}
