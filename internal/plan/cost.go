package plan

import (
	"math"
	"sync"
	"time"

	"fastintersect/internal/bitseg"
	"fastintersect/internal/core"
	"fastintersect/internal/sets"
)

// Costs are the calibrated coefficients of the cost model, in nanoseconds.
//
// The four kernel anchors are measured against the REAL kernels at a
// reference shape (4096-element lists, reference skew ratio 16), so machine
// idiosyncrasies — a vectorized merge, cache behavior — move the crossovers
// exactly as they move the kernels. The physical planner scales them with
// the paper's complexity bounds:
//
//	Merge          MergeElem · Σnᵢ
//	Gallop (SvS)   GallopProbe · n₀ · Σ max(1, log₂(2+nᵢ/n₀)/refDepth)
//	RGSPair §3.3   GroupElem · Σnᵢ + Probe · n₀
//	BitsegAnd      BitsegWord · 64 words · E[aligned chunks] · (k−1) + Scan · E[|out|]
//
// The primitive coefficients price the compressed tier's decode-vs-probe
// decisions (see PriceStored). All coefficients are measured once per
// process by Calibrate; Config.PlanCosts overrides them.
type Costs struct {
	// MergeElem is the ns per element of a two-pointer linear merge.
	MergeElem float64
	// GallopProbe is the ns per probe of SvS galloping at the reference
	// skew ratio.
	GallopProbe float64
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

	// Corr holds per-kernel multiplicative correction factors learned from
	// runtime feedback (see feedback.go): the priced cost of kernel k is
	// scaled by Corr[k] wherever the choosers compare candidates. A zero
	// entry means "no correction" (factor 1), so the zero value of Costs —
	// and every calibrated/default instance — prices exactly as before the
	// feedback loop existed. Corrections never change results, only which
	// (parity-identical) kernel wins a comparison.
	Corr [KernelCount]float64
}

// corr returns the correction factor for kernel k (1 when unset).
func (c *Costs) corr(k Kernel) float64 {
	if v := c.Corr[k]; v > 0 {
		return v
	}
	return 1
}

// DefaultCosts returns hand-set coefficients in the measured ballpark of a
// modern x86-64/arm64 core — the fallback when calibration is skipped and
// the sanity floor/ceiling for implausible calibration readings.
func DefaultCosts() *Costs {
	return &Costs{
		MergeElem: 4.0, GallopProbe: 15.0, GroupElem: 1.5,
		BitsegWord: 4.0,
		Scan:       0.6, Probe: 2.0, Hash: 2.0, Filter: 0.8, GapDecode: 2.5,
	}
}

// sqrtW mirrors bitword.SqrtW for the grouped kernels' 1/√w factor.
const sqrtW = 8

// storedBucket mirrors compress.DefaultStoredBucket (the paper's B = 32):
// the γ/δ probe cost decodes at most one B-sized bucket per probe.
const storedBucket = 32

// Calibration reference shape: two calibSize-element lists, and a probe
// side of calibSize/calibRatio for the skewed kernels. refDepth is the
// search depth log₂(2+calibRatio) the per-probe anchors embed.
const (
	calibSize  = 1 << 12
	calibRatio = 16
)

var refDepth = math.Log2(2 + calibRatio)

// Calibrate measures the cost coefficients by timing the actual core
// kernels (Merge, SvS galloping, RanGroupScan, bitseg AND) at the reference
// shape, plus internal/core's primitive hooks for the compressed tier — a
// few milliseconds, once per process. Readings that come out implausible
// (a preempted loop, structure build failure, a coarse clock) fall back to
// DefaultCosts values.
func Calibrate() *Costs {
	a := core.CalibrationSet(calibSize)
	b := core.CalibrationSetSeeded(0xCA11_DA7B, calibSize)
	small := make([]uint32, 0, calibSize/calibRatio)
	for i := 0; i < len(b); i += calibRatio {
		small = append(small, b[i])
	}
	needles := core.CalibrationSet(1 << 10)
	fam := core.NewFamily(0xCA11_B8A7E, 4) // the library's default m = 4
	img := core.CalibrationImage(fam, a)

	def := DefaultCosts()
	c := &Costs{
		Scan:      timePerOp(func() { calibrationSink += uint64(core.ScanStep(a)) }, len(a)),
		Probe:     timePerOp(func() { calibrationSink += uint64(core.ProbeStep(a, needles)) }, len(needles)*12), // log₂(4k) = 12 halvings per search
		Hash:      timePerOp(func() { calibrationSink += uint64(fam.HashStep(a)) }, len(a)),
		Filter:    timePerOp(func() { calibrationSink += uint64(fam.FilterStep(img, a)) }, len(a)),
		GapDecode: timePerOp(func() { calibrationSink += uint64(core.GapStep(a)) }, len(a)),
	}
	buf := make([]uint32, 0, calibSize)
	c.MergeElem = timePerOp(func() {
		buf = sets.IntersectInto(buf[:0], a, b)
		calibrationSink += uint64(len(buf))
	}, 2*calibSize)
	c.GallopProbe = timePerOp(func() {
		buf = sets.IntersectGallopInto(buf[:0], small, b)
		calibrationSink += uint64(len(buf))
	}, len(small))
	var sc core.Scratch
	if rgsA, err1 := core.NewRanGroupScanList(fam, a, 4); err1 == nil {
		if rgsB, err2 := core.NewRanGroupScanList(fam, b, 4); err2 == nil {
			c.GroupElem = timePerOp(func() {
				buf = core.IntersectRanGroupScanInto(buf[:0], &sc, rgsA, rgsB)
				calibrationSink += uint64(len(buf))
			}, 2*calibSize)
		}
	}
	if bsA, err1 := bitseg.FromSorted(a); err1 == nil {
		if bsB, err2 := bitseg.FromSorted(b); err2 == nil {
			words := bsA.Chunks()
			if bsB.Chunks() < words {
				words = bsB.Chunks()
			}
			words *= bitseg.ChunkWords
			c.BitsegWord = timePerOp(func() {
				buf = bitseg.IntersectInto(buf[:0], bsA, bsB)
				calibrationSink += uint64(len(buf))
			}, words)
		}
	}
	sanitize(&c.MergeElem, def.MergeElem)
	sanitize(&c.GallopProbe, def.GallopProbe)
	sanitize(&c.GroupElem, def.GroupElem)
	sanitize(&c.BitsegWord, def.BitsegWord)
	sanitize(&c.Scan, def.Scan)
	sanitize(&c.Probe, def.Probe)
	sanitize(&c.Hash, def.Hash)
	sanitize(&c.Filter, def.Filter)
	sanitize(&c.GapDecode, def.GapDecode)
	return c
}

// calibrationSink keeps the timed loops observable so the compiler cannot
// eliminate them.
var calibrationSink uint64

// sanitize replaces implausible calibration readings (≤ 0, NaN, or further
// than 50× from the reference value in either direction) with the default.
func sanitize(v *float64, def float64) {
	if !(*v > def/50 && *v < def*50) { // also catches NaN
		*v = def
	}
}

// timePerOp times f (which performs ops primitive operations per call) and
// returns the minimum observed ns per operation across a handful of runs.
func timePerOp(f func(), ops int) float64 {
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		f()
		if d := float64(time.Since(start).Nanoseconds()) / float64(ops); d < best {
			best = d
		}
	}
	return best
}

var (
	calibrateOnce sync.Once
	calibrated    *Costs
)

// Calibrated returns the process-wide calibrated coefficients, measuring
// them on first use.
func Calibrated() *Costs {
	calibrateOnce.Do(func() { calibrated = Calibrate() })
	return calibrated
}

// Kernel identifies the physical operator chosen for an intersection. Merge,
// Gallop and BitsegAnd run over raw lists (the engine's sorted []uint32
// lists and intermediate results, and EncRaw in internal/compress);
// BitsegAnd, RGSPair, LookupProbe, FilterChain and DecodeAll over the
// compressed encodings. HashBin and GroupScan name the paper's §3.4 and
// Algorithm 5 list kernels: they remain public through fastintersect, and
// their values keep the per-kernel metric series stable, but no serving
// path chooses them.
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
)

var kernelNames = [...]string{
	"None", "Merge", "Gallop", "HashBin", "GroupScan", "BitsegAnd",
	"RGSPair", "LookupProbe", "FilterChain", "DecodeAll",
}

// KernelCount is the number of kernel values, for per-kernel metric arrays.
const KernelCount = len(kernelNames)

func (k Kernel) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return "Kernel(?)"
}

// KernelPolicy selects how kernels are chosen.
type KernelPolicy uint8

const (
	// KernelsCost picks the cheapest kernel under the calibrated cost model
	// (the default).
	KernelsCost KernelPolicy = iota
	// KernelsHeuristic reproduces the pre-planner fixed rules — always-merge
	// for raw lists and the shape dispatch for compressed ones — as the
	// baseline the plan-quality experiment compares against.
	KernelsHeuristic
)

// Order selects how AND operands are ordered.
type Order uint8

const (
	// OrderCost orders term operands by ascending size and composite
	// operands by ascending estimated cardinality, so cheap short-circuits
	// come first (the default).
	OrderCost Order = iota
	// OrderDF orders term operands by ascending document frequency and
	// leaves composite operands in query order — the pre-planner baseline.
	OrderDF
	// OrderWorst orders term operands by DESCENDING size: the adversarial
	// ordering the plan-quality experiment uses to bound the value of
	// ordering at all.
	OrderWorst
)

// Policy bundles the planner's tunables. The zero value is the cost-based
// default; the other combinations exist for the harness's plan-quality
// experiment and for debugging.
type Policy struct {
	Order   Order
	Kernels KernelPolicy
}

// logRatio is log₂(2 + a/b), the recurring search-depth term.
func logRatio(a, b int) float64 {
	if b <= 0 {
		return 1
	}
	return math.Log2(2 + float64(a)/float64(b))
}

// probeDepth scales a per-probe anchor by the search depth relative to the
// calibration shape, floored at 1: shallower-than-reference searches still
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

// rawCost prices one raw-list kernel — Merge, Gallop or BitsegAnd — over
// ops with the paper's bounds (see Costs), before corrections; span
// (universe extent) feeds only BitsegAnd.
func rawCost(c *Costs, k Kernel, ops []Operand, span int) float64 {
	n0 := ops[0].Len
	for _, op := range ops {
		n0 = min(n0, op.Len)
	}
	switch k {
	case KernelMerge:
		total := 0
		for _, op := range ops {
			total += op.Len
		}
		return c.MergeElem * float64(total)
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
// the probe side). All-raw operands choose among Merge, Gallop and — when
// every span is known — BitsegAnd; any compressed operand brings in the
// compressed-tier strategies. Under KernelsHeuristic raw operands always
// merge and compressed ones follow the pre-planner shape dispatch.
func ChooseStored(c *Costs, pol KernelPolicy, ops []Operand) Kernel {
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
		return chooseRaw(c, pol, ops, span)
	}
	pairRGS := len(ops) == 2 && ops[0].Shape == ShapeLowbits && ops[1].Shape == ShapeLowbits
	if pol == KernelsHeuristic {
		switch {
		case pairRGS:
			return KernelRGSPair
		case allLookup:
			return KernelLookupProbe
		default:
			return KernelFilterChain
		}
	}
	n0 := ops[0].Len
	chain := decodeCost(c, ops[0])
	decodeAll := decodeCost(c, ops[0])
	for _, op := range ops[1:] {
		chain += probeCost(c, op, n0)
		decodeAll += decodeCost(c, op) + c.MergeElem*float64(op.Len+n0)
	}
	best, k := chain*c.corr(KernelFilterChain), KernelFilterChain
	if da := decodeAll * c.corr(KernelDecodeAll); da < best {
		best, k = da, KernelDecodeAll
	}
	if lp := chain * c.corr(KernelLookupProbe); allLookup && lp <= best {
		// Same bucket probes as the chain, but consecutive probes share
		// bucket decodes; prefer it on ties.
		best, k = lp, KernelLookupProbe
	}
	if allBitseg && span > 0 {
		// The lists already carry the hybrid representation: run the k-way
		// word kernel directly, no decode at all.
		if bc := bitsegCost(c, ops, span) * c.corr(KernelBitsegAnd); bc < best {
			best, k = bc, KernelBitsegAnd
		}
	}
	if pairRGS {
		// The stored RGS kernel is the calibrated group scan plus the final
		// result sort (the groups emit permutation order).
		total := float64(ops[0].Len + ops[1].Len)
		rgs := (c.GroupElem*total + c.Probe*float64(n0)) * c.corr(KernelRGSPair)
		if rgs < best {
			k = KernelRGSPair
		}
	}
	return k
}

// chooseRaw picks Merge, Gallop or (span > 0) BitsegAnd for raw operands:
// the cheapest under the corrected list formulas, Merge on ties.
func chooseRaw(c *Costs, pol KernelPolicy, ops []Operand, span int) Kernel {
	if pol == KernelsHeuristic {
		return KernelMerge
	}
	for _, op := range ops {
		if op.Len == 0 {
			return KernelMerge // trivially empty; avoid building structures
		}
	}
	best, k := rawCost(c, KernelMerge, ops, span)*c.corr(KernelMerge), KernelMerge
	if g := rawCost(c, KernelGallop, ops, span) * c.corr(KernelGallop); g < best {
		best, k = g, KernelGallop
	}
	if span > 0 {
		if b := rawCost(c, KernelBitsegAnd, ops, span) * c.corr(KernelBitsegAnd); b < best {
			k = KernelBitsegAnd
		}
	}
	return k
}

// PriceStored prices kernel k over ops with the live corrections applied —
// the figure ChooseStored compared when it picked k. Plans carry it as the
// operator cost Explain renders, and the engine uses it at execution time
// to pair each re-priced kernel run with the estimate the feedback loop
// should hold it to.
func PriceStored(c *Costs, k Kernel, ops []Operand) float64 {
	if len(ops) == 0 {
		return 0
	}
	n0 := ops[0].Len
	switch k {
	case KernelMerge, KernelGallop:
		return rawCost(c, k, ops, 0) * c.corr(k)
	case KernelRGSPair:
		total := float64(ops[0].Len + ops[1].Len)
		return (c.GroupElem*total + c.Probe*float64(n0)) * c.corr(k)
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
		return bitsegCost(c, ops, span) * c.corr(k)
	case KernelDecodeAll:
		cost := decodeCost(c, ops[0])
		for _, op := range ops[1:] {
			cost += decodeCost(c, op) + c.MergeElem*float64(op.Len+n0)
		}
		return cost * c.corr(k)
	default: // FilterChain, LookupProbe
		cost := decodeCost(c, ops[0])
		for _, op := range ops[1:] {
			cost += probeCost(c, op, n0)
		}
		return cost * c.corr(k)
	}
}
