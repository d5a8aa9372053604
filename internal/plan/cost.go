package plan

import (
	"math"

	"fastintersect/internal/bitseg"
)

// Costs are the coefficients of the cost model, in nanoseconds.
//
// The kernel anchors were measured against the REAL kernels, so machine
// idiosyncrasies — a vectorized merge, cache behavior — move the crossovers
// exactly as they move the kernels. The four raw-list anchors (MergeElem,
// GallopProbe, BitProbeElem, BitsegWord) were timed at serving size, on
// lists too large for the L1 cache and a gallop probe side the branch
// predictor cannot learn; GroupElem at a cache-resident reference shape
// (4096-element lists). The physical planner scales them with the paper's
// complexity bounds (reference skew ratio 16):
//
//	Merge          MergeElem · Σnᵢ
//	BitProbe       BitProbeElem · Σnᵢ
//	Gallop (SvS)   GallopProbe · n₀ · Σ max(1, log₂(2+nᵢ/n₀)/refDepth)
//	RGSPair §3.3   GroupElem · Σnᵢ + Probe · n₀
//	BitsegAnd      BitsegWord · 64 words · E[aligned chunks] · (k−1) + Scan · E[|out|]
//
// The primitive coefficients price the compressed tier's decode-vs-probe
// decisions (see PriceStored). Every planner prices with one table, taken
// as it is: the committed DefaultCosts, or the table an engine is given
// in Config.PlanCosts. Nothing corrects it at run time, so the same query
// over the same index gets the same plan on every host and every run.
type Costs struct {
	// MergeElem is the ns per element of a two-pointer linear merge.
	MergeElem float64
	// GallopProbe is the ns per probe of SvS galloping at the reference
	// skew ratio.
	GallopProbe float64
	// BitProbeElem is the ns per input element of the bitmap-probe pair
	// kernel (sets.IntersectBitProbeInto): setting, probing and clearing
	// the smaller list's bits.
	BitProbeElem float64
	// GroupElem is the ns per element of RanGroupScan on balanced lists.
	GroupElem float64
	// BitsegWord is the ns per 64-bit word ANDed by the bitseg kernel at
	// the reference density (including its share of result enumeration).
	BitsegWord float64

	// Scan is the ns per element of a sequential scan (decode copy,
	// union merge step).
	Scan float64
	// Probe is the ns per binary-search halving (directory lookups).
	Probe float64
	// Hash is the ns per hash application (permutation + image hash).
	Hash float64
	// Filter is the ns per word-image containment test (the stored Lowbits
	// probe filter).
	Filter float64
	// GapDecode is the ns per element decoded from a γ/δ gap-coded bucket.
	GapDecode float64
}

// DefaultCosts returns the committed coefficient table, a fresh copy per
// call so callers may adjust it. Plans depend only on the query, the index
// and this table: never on the host at start-up, and never on the traffic
// served since.
//
// Each value is the median, to four significant figures, of 12
// fresh-process runs of the start-up calibration the planner used to
// repeat in every process, on a 2-vCPU x86-64 VM (Intel Xeon, Go 1.24).
// It timed the real kernels: Merge, BitProbe and bitseg's AND over two
// 2¹⁷-element lists with gaps of 1–16 (512 KB each, past L1), Gallop from
// an independent 2¹³-element probe side with gaps of 1–271; RanGroupScan
// (m = 4) and the primitives (a scan, 12-halving binary searches, the
// permutation plus one image hash, Algorithm 5's word-image test, a gap
// decode step) on 4096-element lists. Over the 12 runs MergeElem read
// 6.1–12.0, GallopProbe 40–87, BitProbeElem 2.7–3.9 and BitsegWord
// 9.1–12.0 ns. For a 600-element pair the table puts the BitProbe/Gallop
// crossover at a size ratio of 13, inside the 8–32 band
// BenchmarkIntersectBitProbeCrossover (internal/sets) measures.
func DefaultCosts() *Costs {
	return &Costs{
		MergeElem: 7.223, GallopProbe: 44.44, BitProbeElem: 3.258, GroupElem: 5.944,
		BitsegWord: 10.44,
		Scan:       0.655, Probe: 5.550, Hash: 16.08, Filter: 1.950, GapDecode: 1.622,
	}
}

// storedBucket mirrors compress.DefaultStoredBucket (the paper's B = 32):
// the γ/δ probe cost decodes at most one B-sized bucket per probe.
const storedBucket = 32

// refDepth is the search depth log₂(2+16) the per-probe Gallop anchor
// embeds: it was timed on a probe side 16 times smaller than the list it
// searched.
var refDepth = math.Log2(2 + 16)

// Kernel identifies the physical operator chosen for an intersection.
// BitProbe, Gallop, BitsegAnd and Merge run over raw lists (the engine's
// sorted []uint32 lists and intermediate results, and EncRaw in
// internal/compress); BitsegAnd, RGSPair, LookupProbe, FilterChain and
// DecodeAll over the compressed encodings. The chooser picks Merge only
// for an empty operand.
// HashBin and GroupScan name the paper's §3.4 and Algorithm 5 list kernels:
// they remain public through fastintersect, and their values keep the
// per-kernel metric series stable, but no serving path chooses them. New
// kernels are appended, so that every value and series stays.
type Kernel uint8

const (
	// KernelNone marks operators that need no intersection kernel (a single
	// posting list, a union, a term fetch).
	KernelNone Kernel = iota
	// KernelMerge is the linear parallel scan over sorted lists.
	KernelMerge
	// KernelGallop gallops the smallest list through the others (SvS).
	KernelGallop
	// KernelHashBin is §3.4's per-bucket binary search for skewed sizes
	// (not chosen by the planner).
	KernelHashBin
	// KernelGroupScan is Algorithm 5 (§3.3), the word-image grouped scan
	// (not chosen by the planner; see KernelRGSPair for its stored form).
	KernelGroupScan
	// KernelBitsegAnd is the word-parallel bitmap tier: density-partitioned
	// lists intersected 64 docIDs per AND over their dense ranges.
	KernelBitsegAnd
	// KernelRGSPair runs Algorithm 5 directly over two stored Lowbits lists.
	KernelRGSPair
	// KernelLookupProbe intersects γ/δ lists through their bucket
	// directories, decoding only the buckets the smallest list occupies.
	KernelLookupProbe
	// KernelFilterChain decodes the smallest stored list once and filters it
	// through each remaining stored list in cost order.
	KernelFilterChain
	// KernelDecodeAll decodes every stored list and merges the sorted
	// results — cheapest when the lists are small and probing is expensive.
	KernelDecodeAll
	// KernelBitProbe intersects raw lists pairwise from the probe side,
	// each pair by setting the smaller list's bits in a bitmap window and
	// streaming the larger through it (sets.IntersectBitProbeInto): §3.1's
	// word image under the identity hash, for balanced pairs.
	KernelBitProbe
)

var kernelNames = [...]string{
	"None", "Merge", "Gallop", "HashBin", "GroupScan", "BitsegAnd",
	"RGSPair", "LookupProbe", "FilterChain", "DecodeAll", "BitProbe",
}

// KernelCount is the number of kernel values, for per-kernel metric arrays.
const KernelCount = len(kernelNames)

func (k Kernel) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return "Kernel(?)"
}

// logRatio is log₂(2 + a/b), the recurring search-depth term.
func logRatio(a, b int) float64 {
	if b <= 0 {
		return 1
	}
	return math.Log2(2 + float64(a)/float64(b))
}

// probeDepth scales a per-probe anchor by the search depth relative to the
// reference shape, floored at 1: shallower-than-reference searches still
// pay the anchor's fixed per-probe overhead (a near-balanced gallop steps
// by one with a search each time — it never undercuts the reference probe).
func probeDepth(n, n0 int) float64 {
	d := logRatio(n, n0) / refDepth
	if d < 1 {
		return 1
	}
	return d
}

// bitsegCost prices the bitmap kernel: the chunk directories advance in
// lockstep, so word ANDs are paid only on chunks every operand occupies —
// chunks·Π min(1, nᵢ/chunks) in expectation under independence — and the
// enumeration pays Scan per expected output element.
func bitsegCost(c *Costs, ops []Operand, span int) float64 {
	chunks := float64(span/bitseg.ChunkWidth + 1)
	aligned := chunks
	out := float64(span)
	for _, op := range ops {
		if f := float64(op.Len) / chunks; f < 1 {
			aligned *= f
		}
		out *= float64(op.Len) / float64(span)
	}
	words := c.BitsegWord * bitseg.ChunkWords * aligned * float64(len(ops)-1)
	return words + c.Scan*out
}

// rawCost prices one raw-list kernel — Merge, BitProbe, Gallop or
// BitsegAnd — over ops with the paper's bounds (see Costs); span (universe
// extent) feeds only BitsegAnd.
func rawCost(c *Costs, k Kernel, ops []Operand, span int) float64 {
	n0, total := ops[0].Len, 0
	for _, op := range ops {
		n0 = min(n0, op.Len)
		total += op.Len
	}
	switch k {
	case KernelMerge:
		return c.MergeElem * float64(total)
	case KernelBitProbe:
		return c.BitProbeElem * float64(total)
	case KernelGallop:
		cost := 0.0
		probeSide := true // the smallest list probes; every other list is a partner
		for _, op := range ops {
			if probeSide && op.Len == n0 {
				probeSide = false
				continue
			}
			cost += c.GallopProbe * float64(n0) * probeDepth(op.Len, n0)
		}
		return cost
	case KernelBitsegAnd:
		if span <= 0 {
			return math.Inf(1)
		}
		return bitsegCost(c, ops, span)
	}
	return math.Inf(1)
}

// Shape is the storage representation of one operand, as far as the cost
// model cares: a raw sorted list, or one of the compressed encodings.
type Shape uint8

const (
	// ShapeRaw is a sorted []uint32 list.
	ShapeRaw Shape = iota
	// ShapeGamma and ShapeDelta are gap-coded bucket directories.
	ShapeGamma
	ShapeDelta
	// ShapeLowbits is the grouped Appendix-B structure.
	ShapeLowbits
	// ShapeBitseg is the density-partitioned bitmap/run hybrid.
	ShapeBitseg
)

var shapeNames = [...]string{"raw", "gamma", "delta", "lowbits", "bitseg"}

func (s Shape) String() string {
	if int(s) < len(shapeNames) {
		return shapeNames[s]
	}
	return "shape(?)"
}

// Operand describes one intersection operand to the kernel chooser. Span is
// one past the operand's largest docID; only the bitseg strategy consults
// it. Span 0 marks a raw operand whose bitmap form would be rebuilt on
// every query — an in-memory segment list or an intermediate result — so
// it is never priced for BitsegAnd.
type Operand struct {
	Len   int
	Shape Shape
	Span  int
}

// decodeCost prices materializing one stored operand as sorted []uint32.
func decodeCost(c *Costs, op Operand) float64 {
	n := float64(op.Len)
	switch op.Shape {
	case ShapeGamma, ShapeDelta:
		return c.GapDecode * n
	case ShapeLowbits:
		// Group concat + inverse permutation per element, then the sort.
		return (c.Hash + c.Scan) * n * (1 + logRatio(op.Len, 4)/8)
	case ShapeBitseg:
		// Word enumeration via TrailingZeros plus the run copies.
		return 2 * c.Scan * n
	default:
		return c.Scan * n // copy
	}
}

// probeCost prices filtering p ascending probes through one stored operand.
func probeCost(c *Costs, op Operand, p int) float64 {
	pf := float64(p)
	switch op.Shape {
	case ShapeGamma, ShapeDelta:
		visited := op.Len
		if m := p * storedBucket; m < visited {
			visited = m
		}
		return c.GapDecode*float64(visited) + c.Scan*pf
	case ShapeLowbits:
		// Per probe: permutation + image filter, plus the occasional
		// surviving group decode (≈ √w elements for a vanishing fraction).
		return (c.Hash + c.Filter + 2*c.Scan) * pf
	case ShapeBitseg:
		// O(1) bit test per probe on dense chunks, short run walk on sparse,
		// plus the chunk-cursor advance.
		return (c.Filter + c.Scan) * pf
	default:
		return c.MergeElem * (pf + float64(op.Len)) // linear merge
	}
}

// ChooseStored is the one kernel chooser: it picks the intersection
// strategy for k ≥ 2 operands given in ascending length order (ops[0] is
// the probe side). All-raw operands choose among BitProbe, Gallop and —
// when every span is known — BitsegAnd; any compressed operand brings in
// the compressed-tier strategies.
func ChooseStored(c *Costs, ops []Operand) Kernel {
	allRaw, allLookup, allBitseg, spans := true, true, true, true
	span := 0
	for _, op := range ops {
		if op.Shape != ShapeRaw {
			allRaw = false
		}
		spans = spans && op.Span > 0
		if op.Shape != ShapeGamma && op.Shape != ShapeDelta {
			allLookup = false
		}
		if op.Shape != ShapeBitseg {
			allBitseg = false
		}
		if op.Span > 0 && (span == 0 || op.Span < span) {
			span = op.Span
		}
	}
	if allRaw {
		if !spans {
			span = 0
		}
		return chooseRaw(c, ops, span)
	}
	pairRGS := len(ops) == 2 && ops[0].Shape == ShapeLowbits && ops[1].Shape == ShapeLowbits
	n0 := ops[0].Len
	chain := decodeCost(c, ops[0])
	decodeAll := decodeCost(c, ops[0])
	for _, op := range ops[1:] {
		chain += probeCost(c, op, n0)
		decodeAll += decodeCost(c, op) + c.MergeElem*float64(op.Len+n0)
	}
	best, k := chain, KernelFilterChain
	if decodeAll < best {
		best, k = decodeAll, KernelDecodeAll
	}
	if allLookup && chain <= best {
		// Same bucket probes as the chain, but consecutive probes share
		// bucket decodes; prefer it on ties.
		k = KernelLookupProbe
	}
	if allBitseg && span > 0 {
		// The lists already carry the hybrid representation: run the k-way
		// word kernel directly, no decode at all.
		if bc := bitsegCost(c, ops, span); bc < best {
			best, k = bc, KernelBitsegAnd
		}
	}
	if pairRGS {
		// The stored RGS kernel is the GroupElem-priced scan plus the final
		// result sort (the groups emit permutation order).
		total := float64(ops[0].Len + ops[1].Len)
		if rgs := c.GroupElem*total + c.Probe*float64(n0); rgs < best {
			k = KernelRGSPair
		}
	}
	return k
}

// chooseRaw picks BitProbe, Gallop or (span > 0) BitsegAnd for raw
// operands: the cheapest under the list formulas, BitProbe on ties. Merge
// is no cost-based candidate: BitProbe does the same linear pass without a
// mispredicted comparison per element.
func chooseRaw(c *Costs, ops []Operand, span int) Kernel {
	for _, op := range ops {
		if op.Len == 0 {
			return KernelMerge // trivially empty; avoid building structures
		}
	}
	best, k := rawCost(c, KernelBitProbe, ops, span), KernelBitProbe
	if g := rawCost(c, KernelGallop, ops, span); g < best {
		best, k = g, KernelGallop
	}
	if span > 0 {
		if rawCost(c, KernelBitsegAnd, ops, span) < best {
			k = KernelBitsegAnd
		}
	}
	return k
}

// PriceStored prices kernel k over ops: the figure ChooseStored compared
// when it picked k. Plans carry it as the operator cost Explain renders.
func PriceStored(c *Costs, k Kernel, ops []Operand) float64 {
	if len(ops) == 0 {
		return 0
	}
	n0 := ops[0].Len
	switch k {
	case KernelMerge, KernelGallop, KernelBitProbe:
		return rawCost(c, k, ops, 0)
	case KernelRGSPair:
		total := float64(ops[0].Len + ops[1].Len)
		return c.GroupElem*total + c.Probe*float64(n0)
	case KernelBitsegAnd:
		span := 0
		for _, op := range ops {
			if op.Span > 0 && (span == 0 || op.Span < span) {
				span = op.Span
			}
		}
		if span == 0 {
			span = 1
		}
		return bitsegCost(c, ops, span)
	case KernelDecodeAll:
		cost := decodeCost(c, ops[0])
		for _, op := range ops[1:] {
			cost += decodeCost(c, op) + c.MergeElem*float64(op.Len+n0)
		}
		return cost
	default: // FilterChain, LookupProbe
		cost := decodeCost(c, ops[0])
		for _, op := range ops[1:] {
			cost += probeCost(c, op, n0)
		}
		return cost
	}
}
