// Package compress implements the compressed posting structures of §4.1 and
// Appendix B: Elias γ- and δ-coded gap lists (the standard IR codes of [23]
// p.116) for Merge, Lookup and RanGroupScan, plus the paper's own Lowbits
// scheme — store only the low w−t bits of g(x) per element, since the high
// t bits are the group identifier — whose decoding is a single concatenation
// (Appendix B).
//
// Beyond reproducing the paper's Figure 8 variants, the package holds the
// one posting type of the serving path: Stored keeps one posting list under
// one Encoding (raw, γ, δ, Lowbits or bitseg), and each encoding brings its
// kernels — Merge, Gallop, BitProbe and BitsegAnd (over a lazily attached
// bitmap form) for raw lists, Algorithm 5 for Lowbits pairs, bucket probes
// for γ/δ, word ANDs for bitseg, filter chains for mixes. ChooseEncoding picks
// the encoding per list from its length and density (exact γ/δ bit counts
// from the gaps, with a bounded space allowance that buys Lowbits'
// concatenation decode for long lists), and IntersectStoredStrategy runs
// whichever kernel the planner's one chooser (plan.ChooseStored) picked,
// directly over the stored representations. This is the library tier the
// paper's Figure 8 and Figure 11 experiments measure; the engine serves
// plain sorted lists (internal/segment) and does not link this package.
//
// Bit streams are LSB-first within 64-bit words, so unary runs are scanned
// with a single TrailingZeros instruction.
package compress

import "math/bits"

// BitWriter appends bit fields to a []uint64 stream, LSB-first.
type BitWriter struct {
	words []uint64
	nbits uint64
}

// WriteBits appends the low n bits of v (n ≤ 64).
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	off := w.nbits & 63
	idx := int(w.nbits >> 6)
	for idx+2 > len(w.words) {
		w.words = append(w.words, 0)
	}
	w.words[idx] |= v << off
	if off+uint64(n) > 64 {
		w.words[idx+1] |= v >> (64 - off)
	}
	w.nbits += uint64(n)
}

// WriteUnary appends n zero bits followed by a one bit: the unary code of n.
func (w *BitWriter) WriteUnary(n uint) {
	for n >= 63 {
		w.WriteBits(0, 63)
		n -= 63
	}
	w.WriteBits(1<<n, n+1)
}

// Len returns the number of bits written.
func (w *BitWriter) Len() uint64 { return w.nbits }

// Words returns the stream in a slice of exactly the written length. A list
// keeps the stream for its lifetime, so the writer's append slack is
// dropped here rather than retained beside a SizeBytes that counts only the
// written words.
func (w *BitWriter) Words() []uint64 {
	need := int((w.nbits + 63) / 64)
	if need == 0 {
		return nil
	}
	if cap(w.words) == need {
		return w.words
	}
	out := make([]uint64, need)
	copy(out, w.words)
	return out
}

// BitReader reads bit fields from a stream produced by BitWriter.
type BitReader struct {
	words []uint64
	pos   uint64
}

// NewBitReader positions a reader at bit offset pos.
func NewBitReader(words []uint64, pos uint64) BitReader {
	return BitReader{words: words, pos: pos}
}

// Pos returns the current bit offset.
func (r *BitReader) Pos() uint64 { return r.pos }

// Seek repositions the reader.
func (r *BitReader) Seek(pos uint64) { r.pos = pos }

// Skip advances by n bits without decoding.
func (r *BitReader) Skip(n uint64) { r.pos += n }

// ReadBits consumes and returns the next n bits (n ≤ 64).
func (r *BitReader) ReadBits(n uint) uint64 {
	if n == 0 {
		return 0
	}
	off := r.pos & 63
	idx := r.pos >> 6
	v := r.words[idx] >> off
	if off+uint64(n) > 64 && int(idx+1) < len(r.words) {
		v |= r.words[idx+1] << (64 - off)
	}
	r.pos += uint64(n)
	if n < 64 {
		v &= (1 << n) - 1
	}
	return v
}

// ReadUnary consumes a unary code and returns its value (the zero-run
// length).
func (r *BitReader) ReadUnary() uint {
	n := uint(0)
	for {
		off := r.pos & 63
		idx := r.pos >> 6
		rest := r.words[idx] >> off
		if rest != 0 {
			tz := uint(bits.TrailingZeros64(rest))
			r.pos += uint64(tz) + 1
			return n + tz
		}
		n += 64 - uint(off)
		r.pos += 64 - off
	}
}
