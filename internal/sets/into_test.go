package sets

import (
	"math/rand"
	"testing"

	"fastintersect/internal/race"
)

func randomSet(rng *rand.Rand, n int, universe uint32) []uint32 {
	m := map[uint32]bool{}
	for len(m) < n {
		m[rng.Uint32()%universe] = true
	}
	out := make([]uint32, 0, n)
	for v := range m {
		out = append(out, v)
	}
	return SortDedup(out)
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		a := randomSet(rng, rng.Intn(200), 500)
		b := randomSet(rng, rng.Intn(200), 500)
		prefix := []uint32{7, 8, 9}
		if got := UnionInto(Clone(prefix), a, b); !Equal(got[:3], prefix) || !Equal(got[3:], Union(a, b)) {
			t.Fatalf("UnionInto mismatch (trial %d)", trial)
		}
		if got := DifferenceInto(Clone(prefix), a, b); !Equal(got[:3], prefix) || !Equal(got[3:], Difference(a, b)) {
			t.Fatalf("DifferenceInto mismatch (trial %d)", trial)
		}
		if got := IntersectInto(Clone(prefix), a, b); !Equal(got[:3], prefix) || !Equal(got[3:], IntersectReference(a, b)) {
			t.Fatalf("IntersectInto mismatch (trial %d)", trial)
		}
	}
}

// TestIntersectGallopInto drives the planner's skew kernel through random
// and adversarial shapes, checking it against the linear-merge reference:
// argument order must not matter, the prefix must survive, and runs of
// consecutive matches (where galloping resumes at distance 1) must all be
// found.
func TestIntersectGallopInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a := randomSet(rng, rng.Intn(50), 2000)
		b := randomSet(rng, rng.Intn(1000), 2000)
		want := IntersectReference(a, b)
		prefix := []uint32{42}
		got := IntersectGallopInto(Clone(prefix), a, b)
		if !Equal(got[:1], prefix) || !Equal(got[1:], want) {
			t.Fatalf("trial %d: gallop(a,b) = %v, want %v", trial, got[1:], want)
		}
		if got := IntersectGallopInto(nil, b, a); !Equal(got, want) {
			t.Fatalf("trial %d: gallop(b,a) = %v, want %v", trial, got, want)
		}
	}
	cases := [][2][]uint32{
		{{}, {1, 2, 3}},
		{{1, 2, 3}, {1, 2, 3}},          // identical: every probe matches at distance 1
		{{5}, {1, 2, 3, 4, 5}},          // match at the far end
		{{9}, {1, 2, 3}},                // probe past the end
		{{0, 1, 2, 3}, {3}},             // larger side probes
		{{1, 3, 5, 7}, {0, 2, 4, 6, 8}}, // interleaved, empty result
		{{0, ^uint32(0)}, {^uint32(0)}}, // extremes
	}
	for i, c := range cases {
		want := IntersectReference(c[0], c[1])
		if got := IntersectGallopInto(nil, c[0], c[1]); !Equal(got, want) {
			t.Fatalf("case %d: gallop = %v, want %v", i, got, want)
		}
	}
}

// unionRef is the obviously-correct oracle: concatenate, sort, deduplicate.
func unionRef(lists ...[]uint32) []uint32 {
	var out []uint32
	for _, l := range lists {
		out = append(out, l...)
	}
	return SortDedup(out)
}

// TestUnionKInto10Way: a k-way union over ten overlapping sets must equal
// the reference, with duplicates across lists emitted once.
func TestUnionKInto10Way(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lists := make([][]uint32, 10)
	for i := range lists {
		// Heavy overlap: small universe relative to total volume.
		lists[i] = randomSet(rng, 50+rng.Intn(100), 400)
	}
	want := unionRef(lists...)
	got := UnionKInto(nil, lists...)
	if !Equal(got, want) {
		t.Fatalf("10-way UnionKInto: got %d elements, want %d", len(got), len(want))
	}
	if err := Validate(got); err != nil {
		t.Fatalf("10-way UnionKInto result invalid: %v", err)
	}
}

func TestUnionKIntoShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][][]uint32{
		{},
		{{}},
		{{}, {}, {}},
		{{1, 2, 3}},
		{{1, 2, 3}, {}},
		{{1, 3, 5}, {2, 4, 6}},
		{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}},
	}
	// A wide case exceeding the stack bound (k > 16).
	wide := make([][]uint32, 20)
	for i := range wide {
		wide[i] = randomSet(rng, 30, 200)
	}
	cases = append(cases, wide)
	// Disjoint ranges (the engine's shard-merge shape).
	cases = append(cases, [][]uint32{{1, 2}, {10, 11}, {20, 21}, {5, 6}})
	for ci, lists := range cases {
		want := unionRef(lists...)
		got := UnionKInto(nil, lists...)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !Equal(got, want) {
			t.Fatalf("case %d: got %v, want %v", ci, got, want)
		}
	}
}

func TestUnionKIntoPreservesPrefix(t *testing.T) {
	dst := []uint32{99, 98}
	got := UnionKInto(dst, []uint32{1, 2}, []uint32{2, 3}, []uint32{0, 4})
	want := []uint32{99, 98, 0, 1, 2, 3, 4}
	if !Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestUnionKIntoAllocs pins the zero-allocation guarantee for k ≤ 16 when
// dst has capacity: the engine's OR path depends on it. The first case
// takes the dense path, the second the sparse one; both draw their scratch
// from pools once warm.
func TestUnionKIntoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; the allocation bound cannot hold")
	}
	rng := rand.New(rand.NewSource(3))
	lists := make([][]uint32, 10)
	total := 0
	for i := range lists {
		lists[i] = randomSet(rng, 100, 1000)
		total += len(lists[i])
	}
	dst := make([]uint32, 0, total)
	n := testing.AllocsPerRun(100, func() {
		UnionKInto(dst[:0], lists...)
	})
	if n != 0 {
		t.Fatalf("UnionKInto allocates %.1f times per op, want 0", n)
	}
	if lo, hi := spanOf(lists); !unionDense(total, len(lists), lo, hi) {
		t.Fatal("the first case takes the sparse path")
	}

	// Sparse: ten lists of 100 spread over a 2^24 span.
	for i := range lists {
		lists[i] = randomSet(rng, 100, 1<<24)
	}
	if lo, hi := spanOf(lists); unionDense(total, len(lists), lo, hi) {
		t.Fatal("the sparse case takes the dense path")
	}
	n = testing.AllocsPerRun(100, func() {
		UnionKInto(dst[:0], lists...)
	})
	if n != 0 {
		t.Fatalf("sparse UnionKInto allocates %.1f times per op, want 0", n)
	}
}
