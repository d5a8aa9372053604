package compress

import (
	"fmt"
	"sync/atomic"

	"fastintersect/internal/bitseg"
	"fastintersect/internal/bitword"
	"fastintersect/internal/core"
	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

// StoredHashImages is the m used by EncLowbits stored lists: the paper's
// compressed experiments run RanGroupScan with a single image word per
// group (§4.1), and one word already filters the overwhelming majority of
// non-matching group pairs.
const StoredHashImages = 1

// Stored is one posting list held under one Encoding: the library tier of
// the paper's compressed experiments (the engine serves plain sorted lists,
// internal/segment's List).
// A Stored is immutable after construction (apart from the lazily attached
// bitseg form of an EncRaw list) and safe for concurrent use.
//
// Each encoding keeps exactly one structure:
//
//	EncRaw      the sorted []uint32 itself, intersected by Merge, Gallop,
//	            BitProbe or — through a bitseg.List attached on first use —
//	            BitsegAnd
//	EncGamma/δ  a LookupList — gap-coded buckets behind a directory, so
//	            intersections decode only the buckets they visit
//	EncLowbits  an RGSList — the Appendix B grouped structure whose decode
//	            is a single bit concatenation
//	EncBitseg   a bitseg.List — density-partitioned bitmap segments and
//	            sorted runs, intersected word-at-a-time with no decode
type Stored struct {
	enc    Encoding
	n      int
	span   int
	raw    []uint32
	lookup *LookupList
	rgs    *RGSList
	// bits is the EncBitseg structure, or the bitseg form an EncRaw list
	// attaches the first time it runs BitsegAnd (see bitsegList).
	bits atomic.Pointer[bitseg.List]
}

// NewStored stores a sorted set under the given encoding. EncLowbits needs
// fam (with at least StoredHashImages provisioned images); the other
// encodings ignore it. For EncRaw the set slice is retained, not copied.
func NewStored(fam *core.Family, set []uint32, enc Encoding) (*Stored, error) {
	s := &Stored{enc: enc, n: len(set)}
	var err error
	switch enc {
	case EncRaw:
		if err = sets.Validate(set); err == nil {
			s.raw = set
		}
	case EncGamma:
		s.lookup, err = NewLookupListAuto(set, Gamma, DefaultStoredBucket)
	case EncDelta:
		s.lookup, err = NewLookupListAuto(set, Delta, DefaultStoredBucket)
	case EncLowbits:
		s.rgs, err = NewRGSList(fam, set, StoredHashImages, RGSLowbits)
	case EncBitseg:
		var b *bitseg.List
		if b, err = bitseg.FromSorted(set); err == nil {
			s.bits.Store(b)
		}
	default:
		err = fmt.Errorf("compress: unknown encoding %d", int(enc))
	}
	if err != nil {
		return nil, err
	}
	if len(set) > 0 {
		s.span = int(set[len(set)-1]) + 1
	}
	return s, nil
}

// DefaultStoredBucket is the average bucket population of the γ/δ lookup
// directories: the paper's B = 32.
const DefaultStoredBucket = 32

// NewStoredAdaptive stores a sorted set under the encoding ChooseEncoding
// picks from its length and density.
func NewStoredAdaptive(fam *core.Family, set []uint32) (*Stored, error) {
	return NewStored(fam, set, ChooseEncoding(set))
}

// Encoding returns the representation the list is stored under.
func (s *Stored) Encoding() Encoding { return s.enc }

// Len returns the number of postings.
func (s *Stored) Len() int { return s.n }

// Span returns one past the largest stored docID (0 for an empty list) —
// the extent the planner's bitmap-tier costing needs.
func (s *Stored) Span() int { return s.span }

// SizeBytes returns the exact payload footprint: element storage plus any
// directory, excluding only the fixed-size struct headers.
func (s *Stored) SizeBytes() int {
	switch s.enc {
	case EncRaw:
		return 4 * len(s.raw)
	case EncGamma, EncDelta:
		return s.lookup.SizeBytes()
	case EncLowbits:
		return s.rgs.SizeBytes()
	case EncBitseg:
		return s.bits.Load().SizeBytes()
	}
	return 0
}

// Decode materializes the sorted posting list. For EncRaw the returned
// slice is the stored one — treat it as read-only; the compressed encodings
// return a fresh slice.
func (s *Stored) Decode() []uint32 {
	if s.enc == EncRaw {
		return s.raw
	}
	return s.DecodeInto(make([]uint32, 0, s.n))
}

// DecodeInto appends the sorted posting list to dst. Unlike Decode it
// always copies, so the result never aliases stored memory. Beyond growing
// dst (and the
// one-time warm-up of the package's scratch pool) it does not allocate.
func (s *Stored) DecodeInto(dst []uint32) []uint32 {
	switch s.enc {
	case EncRaw:
		return append(dst, s.raw...)
	case EncGamma, EncDelta:
		return s.lookup.DecodeInto(dst)
	case EncLowbits:
		return s.rgs.DecodeDocsInto(dst)
	case EncBitseg:
		return s.bits.Load().DecodeInto(dst)
	}
	return dst
}

// bitsegList returns the list's bitseg form: the stored structure of an
// EncBitseg list; for EncRaw, one built on first use and attached for every
// later query. Concurrent first uses may each build one; the first attach
// wins. Nil for the other encodings.
func (s *Stored) bitsegList() *bitseg.List {
	if b := s.bits.Load(); b != nil {
		return b
	}
	if s.enc != EncRaw {
		return nil
	}
	b, _ := bitseg.FromSorted(s.raw) // raw lists are validated
	if s.bits.CompareAndSwap(nil, b) {
		return b
	}
	return s.bits.Load()
}

// Shape maps the list's encoding onto the planner's operand vocabulary.
func (s *Stored) Shape() plan.Shape {
	switch s.enc {
	case EncGamma:
		return plan.ShapeGamma
	case EncDelta:
		return plan.ShapeDelta
	case EncLowbits:
		return plan.ShapeLowbits
	case EncBitseg:
		return plan.ShapeBitseg
	default:
		return plan.ShapeRaw
	}
}

// IntersectStored intersects k ≥ 1 stored lists directly over their
// representations, returning ascending document IDs. Operands are
// cost-ordered by length and the kernel is chosen by the planner's
// calibrated cost model (plan.ChooseStored) over the shapes at hand:
// BitProbe, Gallop or BitsegAnd over raw lists, Algorithm 5 over a Lowbits
// pair, bucket-directory probes for γ/δ, decode-and-filter chains or full
// decode-and-merge for mixed shapes (see the Kernel docs in internal/plan).
//
// The result may share memory with an EncRaw operand when only one list was
// given; callers must treat it as read-only. IntersectStoredInto never
// shares.
func IntersectStored(ss ...*Stored) []uint32 {
	if len(ss) == 1 {
		return ss[0].Decode()
	}
	return IntersectStoredInto(nil, ss...)
}

// IntersectStoredInto is IntersectStored appending into dst. All per-call
// workspace comes from the package's scratch pool, so steady-state calls
// allocate only when the result outgrows dst (or when a raw list first
// attaches its bitseg form). The result never aliases stored memory.
func IntersectStoredInto(dst []uint32, ss ...*Stored) []uint32 {
	switch len(ss) {
	case 0:
		return dst
	case 1:
		return ss[0].DecodeInto(dst)
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.ord = append(sc.ord[:0], ss...)
	ord := sc.ord
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && ord[j].n < ord[j-1].n; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	sc.ops = sc.ops[:0]
	for _, s := range ord {
		sc.ops = append(sc.ops, s.Operand())
	}
	strat := plan.ChooseStored(plan.Calibrated(), plan.KernelsCost, sc.ops)
	return execStored(dst, sc, strat, ord)
}

// Operand describes the list to the planner's chooser.
func (s *Stored) Operand() plan.Operand {
	return plan.Operand{Len: s.n, Shape: s.Shape(), Span: s.span}
}

// IntersectStoredStrategy executes a planner-chosen strategy over operands
// in the caller's order (ss[0] is the probe side — callers pass their
// plan's cost order). A strategy the operand shapes cannot satisfy (e.g.
// KernelRGSPair without two Lowbits lists, or Merge over a compressed
// list) falls back to the filter chain, so a plan built from aggregate
// statistics stays executable on a shard whose local encodings differ.
func IntersectStoredStrategy(dst []uint32, strat plan.Kernel, ss ...*Stored) []uint32 {
	switch len(ss) {
	case 0:
		return dst
	case 1:
		return ss[0].DecodeInto(dst)
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.ord = append(sc.ord[:0], ss...)
	return execStored(dst, sc, strat, sc.ord)
}

// rawPair appends a ∩ b to dst with a pairwise raw-list strategy: the
// gallop of the smaller list through the larger, the bitmap probe through
// the scratch's window, or otherwise the linear merge.
func (sc *scratch) rawPair(strat plan.Kernel, dst, a, b []uint32) []uint32 {
	switch strat {
	case plan.KernelGallop:
		return sets.IntersectGallopInto(dst, a, b)
	case plan.KernelBitProbe:
		if sc.probe == nil {
			sc.probe = new(sets.BitProbeWindow)
		}
		return sets.IntersectBitProbeInto(dst, a, b, sc.probe)
	}
	return sets.IntersectInto(dst, a, b)
}

// allEnc reports whether every operand is stored under one of the given
// encodings.
func allEnc(ord []*Stored, a, b Encoding) bool {
	for _, s := range ord {
		if s.enc != a && s.enc != b {
			return false
		}
	}
	return true
}

// execStored runs one stored-intersection strategy over ord (ord[0] is the
// probe side). It validates applicability and downgrades to the filter
// chain — always executable — when the shapes do not support the request.
func execStored(dst []uint32, sc *scratch, strat plan.Kernel, ord []*Stored) []uint32 {
	if ord[0].n == 0 {
		return dst
	}
	switch strat {
	case plan.KernelMerge, plan.KernelGallop, plan.KernelBitProbe:
		if !allEnc(ord, EncRaw, EncRaw) {
			break
		}
		// Pairwise chain from the probe side: each step merges (gallops,
		// probes) the running result into the next list, ping-ponging
		// between two scratch buffers.
		cur := sc.rawPair(strat, sc.bufC[:0], ord[0].raw, ord[1].raw)
		spare := sc.bufB
		for _, s := range ord[2:] {
			if len(cur) == 0 {
				break
			}
			out := sc.rawPair(strat, spare[:0], cur, s.raw)
			cur, spare = out, cur
		}
		sc.bufB, sc.bufC = cur, spare
		return append(dst, cur...)
	case plan.KernelBitsegAnd:
		if !allEnc(ord, EncBitseg, EncRaw) {
			break
		}
		sc.bits = sc.bits[:0]
		for _, s := range ord {
			sc.bits = append(sc.bits, s.bitsegList())
		}
		return bitseg.IntersectKInto(dst, sc.bits...)
	case plan.KernelRGSPair:
		if len(ord) != 2 || ord[0].enc != EncLowbits || ord[1].enc != EncLowbits {
			break
		}
		start := len(dst)
		dst = intersectRGSInto(dst, sc, ord[0].rgs, ord[1].rgs)
		sets.SortU32(dst[start:])
		return dst
	case plan.KernelLookupProbe:
		if !allEnc(ord, EncGamma, EncDelta) {
			break
		}
		sc.llsIn = sc.llsIn[:0]
		for _, s := range ord {
			sc.llsIn = append(sc.llsIn, s.lookup)
		}
		return intersectLookupInto(dst, sc, sc.llsIn)
	case plan.KernelDecodeAll:
		// Materialize every operand and intersect with linear merges —
		// cheapest when probing the encoded forms costs more than decoding
		// them outright.
		cur := ord[0].DecodeInto(sc.bufC[:0])
		spare := sc.bufB
		for _, s := range ord[1:] {
			if len(cur) == 0 {
				break
			}
			dec := s.DecodeInto(sc.bufA[:0])
			sc.bufA = dec[:0]
			out := sets.IntersectInto(spare[:0], cur, dec)
			cur, spare = out, cur
		}
		sc.bufB, sc.bufC = cur, spare
		return append(dst, cur...)
	}
	// Filter chain (and the fallback for inapplicable strategies): decode
	// the probe side once, then filter it through each remaining operand,
	// ping-ponging between two scratch buffers (bufA stays free as the
	// per-probe bucket/group buffer).
	cur := ord[0].DecodeInto(sc.bufC[:0])
	spare := sc.bufB
	for _, s := range ord[1:] {
		if len(cur) == 0 {
			break
		}
		out := s.filterSortedInto(cur, spare[:0], sc)
		cur, spare = out, cur
	}
	sc.bufB, sc.bufC = cur, spare // retain growth; the two chains stay disjoint
	return append(dst, cur...)
}

// filterSortedInto appends the members of probe (ascending document IDs)
// that s contains to out, using sc.bufA as bucket/group decode space.
// probe is never modified.
func (s *Stored) filterSortedInto(probe, out []uint32, sc *scratch) []uint32 {
	switch s.enc {
	case EncRaw:
		return sets.IntersectInto(out, probe, s.raw)
	case EncGamma, EncDelta:
		return s.lookup.filterSorted(probe, out, &sc.bufA)
	case EncLowbits:
		return s.rgs.filterDocs(probe, out, &sc.bufA)
	case EncBitseg:
		return s.bits.Load().FilterInto(probe, out)
	}
	return out
}

// filterSorted appends the members of probe (ascending) present in l to
// out. Consecutive probes share a bucket decode: ascending probes visit
// buckets in order, so each occupied bucket is decoded at most once.
// bucketBuf provides (and retains) the bucket decode buffer.
func (l *LookupList) filterSorted(probe, out []uint32, bucketBuf *[]uint32) []uint32 {
	buckets := uint32(len(l.dir)) - 1
	curQ := ^uint32(0)
	bucket := (*bucketBuf)[:0]
	i := 0
	for _, x := range probe {
		q := x / l.b
		if q >= buckets {
			break
		}
		if q != curQ {
			curQ = q
			bucket = l.decodeBucket(q, bucket[:0])
			i = 0
		}
		for i < len(bucket) && bucket[i] < x {
			i++
		}
		if i < len(bucket) && bucket[i] == x {
			out = append(out, x)
		}
	}
	*bucketBuf = bucket
	return out
}

// filterDocs appends the members of probe (ascending document IDs) present
// in l to out. Each probe hashes to its group, the group's image words are
// checked first (the Algorithm 5 filter, rejecting most absent candidates
// from the header alone), and only survivors pay an element decode.
// groupBuf provides (and retains) the group decode buffer.
func (l *RGSList) filterDocs(probe, out []uint32, groupBuf *[]uint32) []uint32 {
	var imgs [core.MaxImageCount]bitword.Word
	buf := (*groupBuf)[:0]
	lowWidth := uint(32) - l.t
	for _, x := range probe {
		g := l.fam.Perm.Apply(x)
		z := int(g >> lowWidth)
		cnt, pos := l.groupHeader(z, imgs[:l.m])
		if cnt == 0 {
			continue
		}
		alive := true
		for j := 0; j < l.m; j++ {
			if !imgs[j].Contains(uint(l.fam.Images[j].Hash(x))) {
				alive = false
				break
			}
		}
		if !alive {
			continue
		}
		target := x
		if l.coding == RGSLowbits {
			target = g // Lowbits groups hold g-values, not document IDs
		}
		buf = l.groupElems(z, cnt, pos, buf)
		for _, v := range buf {
			if v == target {
				out = append(out, x)
				break
			}
		}
	}
	*groupBuf = buf
	return out
}

// DecodeDocs reconstructs the sorted document IDs of the whole structure
// (Lowbits groups hold g-values, which are mapped back through g⁻¹).
func (l *RGSList) DecodeDocs() []uint32 {
	return l.DecodeDocsInto(make([]uint32, 0, l.n))
}

// DecodeDocsInto appends the sorted document IDs of the whole structure to
// dst, drawing group-decode space from the package's scratch pool.
func (l *RGSList) DecodeDocsInto(dst []uint32) []uint32 {
	sc := getScratch()
	defer putScratch(sc)
	start := len(dst)
	var imgs [core.MaxImageCount]bitword.Word
	buf := sc.bufA[:0]
	groups := 1 << l.t
	for z := 0; z < groups; z++ {
		buf = l.group(z, imgs[:l.m], buf)
		if l.coding == RGSLowbits {
			for _, g := range buf {
				dst = append(dst, l.fam.Perm.Invert(g))
			}
		} else {
			dst = append(dst, buf...)
		}
	}
	sc.bufA = buf
	sets.SortU32(dst[start:])
	return dst
}
