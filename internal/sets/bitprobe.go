package sets

import (
	"math"
	"slices"
)

// BitProbeWords is the length of IntersectBitProbeInto's bitmap window in
// 64-bit words: 4096 words, 32 KB, cover 2¹⁸ consecutive docIDs. The
// window bounds the kernel's scratch whatever the docID universe, and keeps
// the probed words within the core's L1/L2 caches.
const BitProbeWords = 1 << 12

// BitProbeWindow is IntersectBitProbeInto's scratch: a bitmap over one
// window of BitProbeWords·64 consecutive docIDs. The kernel takes it all
// zero and hands it back all zero, so one window serves any number of
// calls, one at a time. The zero value is ready to use.
type BitProbeWindow [BitProbeWords]uint64

// IntersectBitProbeInto appends the intersection of two sorted sets to dst,
// replacing per-element comparisons with word operations: the bitmap of the
// smaller set is §3.1's word image w(L) under the identity hash. It sets
// the smaller set's bits in w, streams every element of the larger set that
// falls in the smaller's range through a branch-free compaction
// (out[k] = y; k += bit(y)), then clears exactly the words it set. A
// smaller set spanning more than one window is processed window by window,
// each window starting at the next unprocessed element of the smaller set.
//
// It costs O(n₁ + n₂) word operations plus a galloping search of the
// larger set per window, with no data-dependent branch per element, which
// beats the merge's mispredicted comparisons on balanced pairs; galloping
// wins once the larger set is some 16–32 times the smaller (see
// BenchmarkIntersectBitProbeCrossover).
//
// Neither input may alias dst. dst grows once when it lacks room for
// len(smaller)+1 more elements (the compaction stores every streamed
// element one past the matches so far); otherwise the kernel allocates
// nothing.
func IntersectBitProbeInto(dst, a, b []uint32, w *BitProbeWindow) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(a)+1)
	out := dst[len(dst) : len(dst)+len(a)+1]
	k, i, j := 0, 0, 0
	for i < len(a) {
		// The window starts at the word of the next unprocessed element of
		// a; b's elements below it cannot match.
		if j = searchFrom(b, j, a[i]); j == len(b) {
			break
		}
		base := a[i] >> 6
		in := markWindow(w, a[i:], base)
		i += len(in)
		// b's elements from in's first to its last all lie inside the
		// window.
		jEnd := len(b)
		if last := in[len(in)-1]; last < math.MaxUint32 {
			jEnd = searchFrom(b, j, last+1)
		}
		k += probeWindow(out[k:], b[j:jEnd], w, base)
		for _, x := range in {
			w[(x>>6-base)&(BitProbeWords-1)] = 0
		}
		j = jEnd
	}
	return dst[:len(dst)+k]
}

// markWindow sets the bits of xs's longest prefix inside the window whose
// first word is base, and returns that prefix (never empty: xs[0] lies in
// the window).
func markWindow(w *BitProbeWindow, xs []uint32, base uint32) []uint32 {
	end := base + BitProbeWords // word indices stay below 2²⁶ + 2¹², no overflow
	n := 0
	for _, x := range xs {
		if x>>6 >= end {
			break
		}
		w[(x>>6-base)&(BitProbeWords-1)] |= 1 << (x & 63)
		n++
	}
	return xs[:n]
}

// probeWindow is the branch-free compaction: it stores every y of ys, all
// inside the window whose first word is base, at out[k] and advances k by
// y's bit, returning k. out must hold one more element than the matches.
// Inlined into IntersectBitProbeInto, the loop's counters spill to the
// stack; on its own they stay in registers.
//
//go:noinline
func probeWindow(out, ys []uint32, w *BitProbeWindow, base uint32) int {
	k := 0
	for _, y := range ys {
		out[k] = y
		k += int(w[(y>>6-base)&(BitProbeWords-1)]>>(y&63)) & 1
	}
	return k
}
