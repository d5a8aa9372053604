// Package workload generates the inputs behind every experiment in the
// paper's evaluation (Section 4):
//
//   - synthetic sets drawn uniformly from a universe Σ, with either a fixed
//     intersection size (Figures 4, 5, 8, the size-ratio sweep) or fully
//     independent draws (Figure 6), and
//   - a simulated "real" corpus + query workload standing in for the paper's
//     8M Wikipedia pages and 10⁴ Bing queries (Figures 7, 9, 12 and the
//     §4.1 real-data numbers). See RealConfig in realistic.go for the
//     substitution.
//
// All generators are deterministic given a seed.
package workload

import (
	"fmt"

	"fastintersect/internal/sets"
	"fastintersect/internal/xhash"
)

// DefaultUniverse matches the paper's synthetic universe [0, 2×10⁸].
const DefaultUniverse uint32 = 200_000_000

// Sampler draws distinct uniform elements from [0, universe) using a bitmap
// for rejection, so that sampling n elements costs O(n) expected time and
// universe/8 bytes which are reused across calls.
type Sampler struct {
	universe uint32
	used     *sets.Bitset
	rng      *xhash.RNG
}

// NewSampler creates a sampler over [0, universe).
func NewSampler(universe uint32, rng *xhash.RNG) *Sampler {
	if universe == 0 {
		panic("workload: empty universe")
	}
	return &Sampler{universe: universe, used: sets.NewBitset(universe), rng: rng}
}

// Reset forgets all previously drawn elements.
func (s *Sampler) Reset() { s.used.Reset() }

// Exclude marks the elements of set as already used, so subsequent Draw
// calls avoid them.
func (s *Sampler) Exclude(set []uint32) {
	for _, x := range set {
		s.used.Set(x)
	}
}

// Draw appends n fresh distinct elements (not drawn or excluded before) to
// dst and returns it. The result is NOT sorted. Draw panics if the universe
// is exhausted.
func (s *Sampler) Draw(dst []uint32, n int) []uint32 {
	for i := 0; i < n; i++ {
		for attempts := 0; ; attempts++ {
			if attempts > 1_000_000 {
				panic("workload: universe exhausted")
			}
			x := s.rng.Uint32() % s.universe
			if !s.used.Get(x) {
				s.used.Set(x)
				dst = append(dst, x)
				break
			}
		}
	}
	return dst
}

// PairWithIntersection generates two sorted sets with |a| = n1, |b| = n2 and
// |a ∩ b| exactly r, all elements uniform over [0, universe). This is the
// workload of Figures 4, 5 and 8 ("the size of the intersection is fixed at
// 1% of the list size") and of the size-ratio sweep.
func PairWithIntersection(universe uint32, n1, n2, r int, rng *xhash.RNG) (a, b []uint32) {
	if r > n1 || r > n2 {
		panic(fmt.Sprintf("workload: intersection %d larger than set sizes %d/%d", r, n1, n2))
	}
	if uint64(n1)+uint64(n2)-uint64(r) > uint64(universe) {
		panic("workload: universe too small for requested sizes")
	}
	s := NewSampler(universe, rng)
	core := s.Draw(make([]uint32, 0, r), r)
	a = append(make([]uint32, 0, n1), core...)
	a = s.Draw(a, n1-r) // fillers of a: distinct from core
	b = append(make([]uint32, 0, n2), core...)
	b = s.Draw(b, n2-r) // fillers of b: distinct from core AND from a's fillers
	sets.SortU32(a)
	sets.SortU32(b)
	return a, b
}

// KWithIntersection generates k sorted sets of the given sizes whose full
// intersection is exactly r and whose pairwise filler overlaps are empty
// (so each pairwise intersection is also exactly r). Used by the k-set
// variants of the controlled-intersection experiments.
func KWithIntersection(universe uint32, ns []int, r int, rng *xhash.RNG) [][]uint32 {
	total := uint64(r)
	for _, n := range ns {
		if r > n {
			panic("workload: intersection larger than a set")
		}
		total += uint64(n - r)
	}
	if total > uint64(universe) {
		panic("workload: universe too small")
	}
	s := NewSampler(universe, rng)
	core := s.Draw(make([]uint32, 0, r), r)
	out := make([][]uint32, len(ns))
	for i, n := range ns {
		set := append(make([]uint32, 0, n), core...)
		set = s.Draw(set, n-r)
		sets.SortU32(set)
		out[i] = set
	}
	return out
}

// RandomSets generates k independent sorted sets drawn uniformly from
// [0, universe) with no intersection control: the workload of Figure 6
// ("IDs in the sets being randomly generated using a uniform distribution
// over [0, 2×10⁸]").
func RandomSets(universe uint32, ns []int, rng *xhash.RNG) [][]uint32 {
	out := make([][]uint32, len(ns))
	s := NewSampler(universe, rng)
	for i, n := range ns {
		if uint64(n) > uint64(universe) {
			panic("workload: set larger than universe")
		}
		s.Reset()
		set := s.Draw(make([]uint32, 0, n), n)
		sets.SortU32(set)
		out[i] = set
	}
	return out
}
