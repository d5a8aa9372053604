// Package kerneltest is the cross-kernel parity corpus: one generator of
// adversarial and randomized set families that every intersection tier is
// checked against the scalar reference on — the public fastintersect
// algorithms, the compressed stored strategies (including forced,
// shape-mismatched ones, which must downgrade rather than miscompute), and
// the engine's planned execution.
//
// Per-kernel parity tests used to be scattered across the packages they
// tested (fastintersect, compress, plan), each with its own small workload;
// a kernel was only as covered as its package's local test happened to be.
// This package centralizes the corpus so every tier runs the SAME shapes —
// in particular the boundary shapes that break word-parallel bitmap
// kernels (chunk-edge values, dense/sparse flips at the partition
// threshold, near-2³² IDs) — and a new kernel is covered by construction
// the moment its tier's enumeration includes it. The tests live in
// kerneltest_test.go; this file is only the generator, so harness code can
// reuse the corpus too.
package kerneltest

import (
	"fmt"

	"fastintersect/internal/bitseg"
	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
	"fastintersect/internal/xhash"
)

// Case is one parity input: k sorted duplicate-free sets whose intersection
// every kernel must agree on.
type Case struct {
	Name string
	Sets [][]uint32
}

// seqRange returns [lo, hi).
func seqRange(lo, hi uint32) []uint32 {
	out := make([]uint32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// strided returns {lo, lo+step, ...} with n elements.
func strided(lo, step uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = lo + uint32(i)*step
	}
	return out
}

// adversarial are the fixed boundary shapes: chunk-edge straddles, full and
// alternating chunks, the dense/sparse partition threshold, IDs at the top
// of the uint32 range, and the degenerate set relations (empty, singleton,
// identical, nested).
func adversarial() []Case {
	const cw = bitseg.ChunkWidth
	top := ^uint32(0)
	var cases []Case
	add := func(name string, ss ...[]uint32) {
		cases = append(cases, Case{Name: name, Sets: ss})
	}
	add("empty-operand", nil, seqRange(0, 64))
	add("both-empty", nil, nil)
	add("singleton-hit", []uint32{cw}, []uint32{0, cw, 10 * cw})
	add("singleton-miss", []uint32{cw + 1}, []uint32{0, cw, 10 * cw})
	add("chunk-edge-straddle",
		[]uint32{cw - 2, cw - 1, cw, cw + 1},
		[]uint32{cw - 1, cw, 2*cw - 1, 2 * cw})
	add("full-chunk-overlap", seqRange(0, 2*cw), seqRange(cw, 3*cw))
	add("alternating-chunks",
		append(seqRange(0, cw/2), seqRange(2*cw, 2*cw+cw/2)...),
		append(seqRange(cw, cw+cw/2), seqRange(2*cw, 2*cw+cw/2)...))
	add("disjoint-ranges", seqRange(0, cw), seqRange(8*cw, 9*cw))
	add("identical-dense", seqRange(3*cw, 5*cw), seqRange(3*cw, 5*cw))
	add("near-max", []uint32{top - 3, top - 2, top - 1, top}, []uint32{top - 2, top})
	// Exactly DenseMin elements in a chunk stays a sparse run; one more
	// flips it to a bitmap — both sides of the partition threshold, against
	// a dense chunk and against each other.
	add("partition-threshold",
		strided(0, uint32(cw/bitseg.DenseMin), bitseg.DenseMin),
		seqRange(0, cw))
	add("partition-threshold+1",
		strided(0, uint32(cw/(bitseg.DenseMin+1)), bitseg.DenseMin+1),
		strided(0, uint32(cw/bitseg.DenseMin), bitseg.DenseMin))
	add("nested-subsets",
		strided(0, 8, cw/8),
		strided(0, 4, cw/4),
		seqRange(0, cw))
	add("wide-kway",
		seqRange(0, cw), strided(0, 2, cw), strided(0, 3, cw),
		strided(0, 5, cw), strided(0, 7, cw))
	return cases
}

// Cases returns the full corpus for one seed: the fixed adversarial shapes
// plus randomized density, skew, k-way and run-structured sweeps. Every set
// is sorted and duplicate-free (Preprocess-ready).
func Cases(seed uint64) []Case {
	cases := adversarial()
	rng := xhash.NewRNG(seed)
	// Density sweep: balanced pairs from near-empty to quarter-full over a
	// 64Ki universe, with a forced shared core so results are non-trivial.
	for _, n := range []int{16, 256, 4096, 16384} {
		r := n / 8
		if r < 1 {
			r = 1
		}
		a, b := workload.PairWithIntersection(1<<16, n, n, r, rng)
		cases = append(cases, Case{Name: fmt.Sprintf("density-%d", n), Sets: [][]uint32{a, b}})
	}
	// Skew: the galloping/hash regime.
	small, big := workload.PairWithIntersection(1<<20, 12, 60_000, 4, rng)
	cases = append(cases, Case{Name: "skew-12v60k", Sets: [][]uint32{small, big}})
	// K-way with mixed sizes.
	cases = append(cases, Case{Name: "kway-mixed",
		Sets: workload.KWithIntersection(1<<18, []int{300, 2_000, 9_000, 30_000}, 64, rng)})
	// Run-structured: contiguous bursts separated by gaps, the shape gap
	// codes and bitmap chunks both specialize for.
	cases = append(cases, Case{Name: "bursty", Sets: [][]uint32{
		bursts(rng, 40, 200, 1<<18), bursts(rng, 60, 120, 1<<18),
	}})
	return cases
}

// bursts generates nRuns runs of up to runLen consecutive IDs below max.
func bursts(rng *xhash.RNG, nRuns, runLen int, max uint32) []uint32 {
	var out []uint32
	for i := 0; i < nRuns; i++ {
		lo := uint32(rng.Intn(int(max)))
		out = append(out, seqRange(lo, lo+uint32(1+rng.Intn(runLen)))...)
	}
	return sets.SortDedup(out)
}
