package core

import (
	"math/bits"

	"fastintersect/internal/bitword"
	"fastintersect/internal/xhash"
)

// Cost hooks for the query planner's micro-calibration (internal/plan).
//
// The planner's cost model prices each kernel as coefficient × work, where
// the coefficients are the per-element ns of the primitive operations the
// kernels are built from: a sequential scan step (Merge and the grouped
// scans), a binary-search probe step (SvS galloping, HashBin's per-bin
// search), a hash application (HashBin's permutation, RanGroupScan's image
// hashes) and a word-image filter test (Algorithm 5's group rejection).
// These functions expose exactly those inner loops so the calibration times
// the real operations rather than guesses; each returns a value derived
// from its inputs so the loops cannot be optimized away.

// ScanStep runs one linear pass over data — the inner loop of Merge and of
// the grouped scans — and returns the running XOR.
func ScanStep(data []uint32) uint32 {
	var acc uint32
	for _, x := range data {
		acc ^= x
	}
	return acc
}

// ProbeStep binary-searches hay (sorted ascending) for every needle — the
// inner loop of SvS galloping and of HashBin's per-bin search — and returns
// the number found.
func ProbeStep(hay, needles []uint32) int {
	found := 0
	for _, x := range needles {
		lo, hi := 0, len(hay)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if hay[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(hay) && hay[lo] == x {
			found++
		}
	}
	return found
}

// HashStep applies the family's permutation and first image hash to every
// element — the per-element hashing of HashBin and RanGroupScan — and
// returns the running XOR of the images.
func (f *Family) HashStep(data []uint32) uint32 {
	h := f.Images[0]
	var acc uint32
	for _, x := range data {
		acc ^= f.Perm.Apply(x) ^ uint32(h.Hash(x))
	}
	return acc
}

// FilterStep runs the word-image containment test of Algorithm 5 over every
// element — the group-rejection filter of RanGroupScan and the stored
// Lowbits probes — and returns how many pass.
func (f *Family) FilterStep(img bitword.Word, data []uint32) int {
	h := f.Images[0]
	pass := 0
	for _, x := range data {
		if img.Contains(uint(h.Hash(x))) {
			pass++
		}
	}
	return pass
}

// GapStep mimics one gap-code bucket decode per element — a leading-bit
// scan, two shifts and the running prefix sum that rebuilds absolute IDs
// from gaps (the inner loop of the γ/δ stored-list decoders) — and returns
// the running XOR.
func GapStep(gaps []uint32) uint32 {
	var acc, x uint32
	for _, g := range gaps {
		n := uint32(bits.Len32(g | 1))
		x += (g << 1 >> 1) + n
		acc ^= x
	}
	return acc
}

// CalibrationImage builds a half-full word image over a sample of data's
// hashes — the filter word FilterStep tests against, at a density where
// both branch outcomes occur.
func CalibrationImage(f *Family, data []uint32) bitword.Word {
	var img bitword.Word
	h := f.Images[0]
	for i := 0; i < len(data) && i < bitword.W/2; i++ {
		img = img.Add(uint(h.Hash(data[i])))
	}
	return img
}

// CalibrationSet returns n distinct ascending values spread over a sparse
// range — the shape the kernels see in posting lists.
func CalibrationSet(n int) []uint32 {
	return CalibrationSetSeeded(0xCA11_DA7A, n)
}

// CalibrationSetSeeded is CalibrationSet with a caller-chosen seed, so a
// calibration pass can derive several overlapping-but-distinct sets.
func CalibrationSetSeeded(seed uint64, n int) []uint32 {
	return CalibrationSetGaps(seed, n, 16)
}

// CalibrationSetGaps is CalibrationSetSeeded with gaps drawn uniformly from
// [1, maxGap] (mean (1+maxGap)/2), so that sets of different sizes can
// cover the same range.
func CalibrationSetGaps(seed uint64, n int, maxGap uint32) []uint32 {
	dst := make([]uint32, n)
	x := uint32(0)
	rng := xhash.NewRNG(seed)
	for i := range dst {
		x += 1 + rng.Uint32()%maxGap
		dst[i] = x
	}
	return dst
}
