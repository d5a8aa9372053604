package compress

import (
	"fmt"
	"math/bits"
	"strings"

	"fastintersect/internal/baseline"
	"fastintersect/internal/bitseg"
	"fastintersect/internal/core"
)

// Encoding names a posting-list storage representation of a Stored. It
// extends Coding/RGSCoding — which select a code within one compressed
// structure — with the raw representation, so a set of lists can mix
// representations per list.
type Encoding int

const (
	// EncRaw keeps the sorted []uint32 as-is: 32 bits per posting, zero
	// decode cost. The right choice for short lists and for lists so sparse
	// that gap codes would expand them.
	EncRaw Encoding = iota
	// EncGamma gap-codes the list with Elias γ behind a bucket directory
	// (the Lookup layout of §4.1), decoded bucket-by-bucket on the fly.
	// Smallest for dense lists, whose gaps are short.
	EncGamma
	// EncDelta is EncGamma with Elias δ: wins once average gaps exceed
	// roughly 32, i.e. on sparse lists.
	EncDelta
	// EncLowbits stores the list as a Lowbits-grouped RanGroupScan
	// structure (Appendix B): per element only the low w−t bits of g(x),
	// decoded by a single bit concatenation, plus one image word per group
	// so intersections skip non-matching groups without decoding.
	EncLowbits
	// EncBitseg stores the list density-partitioned (internal/bitseg):
	// 64-bit bitmap segments over dense docID ranges, sorted runs over
	// sparse ones. Dense lists shrink below raw AND intersect word-at-a-time
	// — 64 docIDs per AND instruction — without any decode.
	EncBitseg
)

// encodingNames in declaration order.
var encodingNames = [...]string{"Raw", "Gamma", "Delta", "Lowbits", "Bitseg"}

// String names the encoding.
func (e Encoding) String() string {
	if int(e) < len(encodingNames) {
		return encodingNames[e]
	}
	return "Encoding(?)"
}

// ParseEncoding parses an encoding name, case-insensitively, inverting
// Encoding.String.
func ParseEncoding(name string) (Encoding, error) {
	for i, n := range encodingNames {
		if strings.EqualFold(n, name) {
			return Encoding(i), nil
		}
	}
	return 0, fmt.Errorf("compress: unknown encoding %q (known: %s)",
		name, strings.Join(encodingNames[:], ", "))
}

// Encodings lists every storage encoding in declaration order.
func Encodings() []Encoding {
	return []Encoding{EncRaw, EncGamma, EncDelta, EncLowbits, EncBitseg}
}

// The encoding-selection heuristic. ChooseEncoding compares the exact γ/δ
// gap-coded sizes against the raw footprint and a Lowbits estimate, granting
// Lowbits a space allowance because its decode — a single bit concatenation —
// makes intersections 5.7–9.1× faster than decode-and-merge over gap codes
// in the paper's real-workload experiment (§4.1), at 1.3–1.9× the space.
const (
	// MinCompressLen is the shortest list worth compressing: below it the
	// directory and decode overheads exceed the few hundred bytes saved, so
	// the list stays raw.
	MinCompressLen = 64
	// LowbitsMinLen is the shortest list for which EncLowbits is
	// considered. Short lists are cheap to intersect under any
	// representation, so there is nothing to buy with the extra space.
	LowbitsMinLen = 4096
	// LowbitsSpaceFactor is the space multiple of the best gap code that
	// EncLowbits is allowed to cost. The paper pays 1.3–1.9× for its
	// fastest compressed variant; 2 keeps that trade available across
	// densities.
	LowbitsSpaceFactor = 2.0
	// BitsegSpaceFactor is the space multiple of the best gap code that
	// EncBitseg is allowed to cost, on the same rationale: the word-parallel
	// kernels are the fastest intersection in the repertoire, so dense lists
	// may pay up to 2× the gap-coded size for them (they still undercut
	// raw — that is a hard gate).
	BitsegSpaceFactor = 2.0
)

// GapCodeBits returns the exact bit counts of the standard gap encoding of
// a sorted set (writeGaps' layout: x0+1, then the successive differences)
// under Elias γ and δ.
func GapCodeBits(set []uint32) (gamma, delta uint64) {
	prev := uint64(0)
	for i, x := range set {
		gap := uint64(x) - prev
		if i == 0 {
			gap++
		}
		l := uint64(bits.Len64(gap)) // γ(gap) = 2l−1 bits
		ll := uint64(bits.Len64(l))  // δ(gap) = γ(l) + l−1 bits
		gamma += 2*l - 1
		delta += (2*ll - 1) + l - 1
		prev = uint64(x)
	}
	return gamma, delta
}

// LowbitsBitsEstimate estimates the bit-stream size of the Lowbits RGS
// structure for an n-element list (directory excluded, matching Appendix
// B's accounting): n low halves of g at 32−t bits each, the per-group unary
// counts, and StoredHashImages image words per group, assuming every group
// is occupied (at n ≥ 8·2^t they almost all are).
func LowbitsBitsEstimate(n int) uint64 {
	if n == 0 {
		return 0
	}
	t := core.TForSize(n)
	groups := uint64(1) << t
	return uint64(n)*uint64(32-t) + uint64(n) + groups + 64*StoredHashImages*groups
}

// lookupDirBits is the exact 32-bit-per-bucket directory cost a stored γ/δ
// list pays on top of its gap-coded stream (the buckets NewLookupListAuto
// will allocate for this set).
func lookupDirBits(set []uint32) uint64 {
	if len(set) == 0 {
		return 0
	}
	maxID := set[len(set)-1]
	width := baseline.AutoBucketWidth(maxID, len(set), DefaultStoredBucket)
	return 32 * (uint64(maxID/width) + 2)
}

// ChooseEncoding picks a storage representation from the list's length and
// density:
//
//  1. lists shorter than MinCompressLen stay raw;
//  2. otherwise the exact γ and δ sizes — gap-coded stream plus the bucket
//     directory they are stored behind — are computed from the gaps: γ
//     wins on dense lists (short gaps), δ on sparse ones;
//  3. lists of at least LowbitsMinLen take EncLowbits when its estimated
//     size beats raw and stays within LowbitsSpaceFactor of the best gap
//     code — buying the paper's fastest compressed intersections for the
//     lists that dominate query time. The estimate uses Appendix B's
//     stream-only accounting; the probe directory the stored structure
//     adds (~1 bit/element) can push the realized footprint of marginal
//     densities to roughly raw's, a documented cost of the speed trade;
//  4. if even the best gap code would not beat raw (pathologically sparse
//     lists), the list stays raw.
func ChooseEncoding(set []uint32) Encoding {
	n := len(set)
	if n < MinCompressLen {
		return EncRaw
	}
	rawBits := 32 * uint64(n)
	gamma, delta := GapCodeBits(set)
	dir := lookupDirBits(set)
	gamma += dir
	delta += dir
	best, enc := gamma, EncGamma
	if delta < best {
		best, enc = delta, EncDelta
	}
	// Dense lists take the bitmap tier when its exact size beats raw and
	// stays within BitsegSpaceFactor of the best gap code: the word kernels
	// are the fastest intersection available, and bitseg bits undercut raw
	// only when bitmap segments dominate (density ≳ 1/32 per chunk), so the
	// size gate doubles as the density gate.
	if bb := bitseg.EncodedBits(set); bb < rawBits && float64(bb) <= BitsegSpaceFactor*float64(best) {
		return EncBitseg
	}
	if n >= LowbitsMinLen {
		lb := LowbitsBitsEstimate(n)
		if lb < rawBits && float64(lb) <= LowbitsSpaceFactor*float64(best) {
			return EncLowbits
		}
	}
	if best >= rawBits {
		return EncRaw
	}
	return enc
}
