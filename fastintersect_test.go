package fastintersect

import (
	"fmt"
	"testing"

	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
	"fastintersect/internal/xhash"
)

func mustPreprocess(t *testing.T, set []uint32, opts ...Option) *List {
	t.Helper()
	l, err := Preprocess(set, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPreprocessValidation(t *testing.T) {
	if _, err := Preprocess([]uint32{2, 1}); err == nil {
		t.Fatal("unsorted accepted")
	}
	if _, err := Preprocess([]uint32{1, 1}); err == nil {
		t.Fatal("duplicates accepted")
	}
	if _, err := Preprocess([]uint32{1}, WithHashImages(0)); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := Preprocess([]uint32{1}, WithHashImages(99)); err == nil {
		t.Fatal("m=99 accepted")
	}
	l := mustPreprocess(t, []uint32{1, 5, 9})
	if l.Len() != 3 || l.Seed() != DefaultSeed {
		t.Fatal("accessors wrong")
	}
}

func TestPreprocessUnsorted(t *testing.T) {
	l, err := PreprocessUnsorted([]uint32{5, 1, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(l.Set(), []uint32{1, 3, 5}) {
		t.Fatalf("Set = %v", l.Set())
	}
}

// Algorithm-parity coverage (every Algorithm vs the scalar reference over
// pair, k-way, adversarial and randomized shapes) lives in the shared
// cross-kernel harness: internal/kerneltest.TestListKernelParity.

func TestAutoPolicy(t *testing.T) {
	rng := xhash.NewRNG(0xC33)
	small, big := workload.PairWithIntersection(1<<22, 50, 50*AutoSkewThreshold, 10, rng)
	ls, lbg := mustPreprocess(t, small), mustPreprocess(t, big)
	if got := autoPick([]*List{ls, lbg}); got != HashBin {
		t.Fatalf("skewed auto = %v, want HashBin", got)
	}
	even1, even2 := workload.PairWithIntersection(1<<22, 5000, 5000, 100, rng)
	le1, le2 := mustPreprocess(t, even1), mustPreprocess(t, even2)
	if got := autoPick([]*List{le1, le2}); got != RanGroupScan {
		t.Fatalf("even auto = %v, want RanGroupScan", got)
	}
	// Auto must still be correct.
	got, err := IntersectSorted(ls, lbg)
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(got, sets.IntersectReference(small, big)) {
		t.Fatal("auto result wrong")
	}
}

func TestSeedMismatchRejected(t *testing.T) {
	a := mustPreprocess(t, []uint32{1, 2, 3})
	b, err := Preprocess([]uint32{2, 3, 4}, WithSeed(12345))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Intersect(a, b); err == nil {
		t.Fatal("seed mismatch accepted")
	}
}

func TestIntersectEdgeCases(t *testing.T) {
	if _, err := Intersect(); err != ErrNoLists {
		t.Fatalf("no lists error = %v", err)
	}
	a := mustPreprocess(t, []uint32{7, 8})
	got, err := Intersect(a)
	if err != nil || !sets.Equal(got, []uint32{7, 8}) {
		t.Fatalf("single list = %v, %v", got, err)
	}
	empty := mustPreprocess(t, nil)
	got, err = Intersect(a, empty)
	if err != nil || len(got) != 0 {
		t.Fatalf("with empty = %v, %v", got, err)
	}
}

func TestIntersectParallelMatches(t *testing.T) {
	rng := xhash.NewRNG(0xD44)
	raw := workload.RandomSets(1<<18, []int{4000, 9000}, rng)
	a, b := mustPreprocess(t, raw[0]), mustPreprocess(t, raw[1])
	serial, err := IntersectWith(RanGroupScan, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		par, err := IntersectParallel(workers, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sets.Equal(sortedU32(par), sortedU32(serial)) {
			t.Fatalf("workers=%d mismatch", workers)
		}
	}
}

func sortedU32(s []uint32) []uint32 {
	out := append([]uint32(nil), s...)
	sets.SortU32(out)
	return out
}

func TestAlgorithmStringers(t *testing.T) {
	if Auto.String() != "Auto" || RanGroupScan.String() != "RanGroupScan" || Bitseg.String() != "Bitseg" {
		t.Fatal("String() wrong")
	}
	if Algorithm(99).String() != "Algorithm(?)" {
		t.Fatal("unknown String() wrong")
	}
	if len(Algorithms()) != 16 {
		t.Fatalf("Algorithms() has %d entries", len(Algorithms()))
	}
}

func TestMultiSetBasics(t *testing.T) {
	m, err := PreprocessBag([]uint32{5, 1, 5, 5, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	for id, want := range map[uint32]uint32{1: 2, 2: 1, 5: 3, 9: 0} {
		if got := m.Count(id); got != want {
			t.Fatalf("Count(%d) = %d, want %d", id, got, want)
		}
	}
}

func TestMultiSetCountsValidation(t *testing.T) {
	if _, err := PreprocessBagCounts([]uint32{1, 2}, []uint32{1}, WithSeed(DefaultSeed)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := PreprocessBagCounts([]uint32{1}, []uint32{0}); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestIntersectBag(t *testing.T) {
	m1, _ := PreprocessBag([]uint32{1, 1, 2, 3, 3, 3})
	m2, _ := PreprocessBag([]uint32{1, 3, 3, 4})
	ids, counts, err := IntersectBag(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(ids, []uint32{1, 3}) {
		t.Fatalf("ids = %v", ids)
	}
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if _, _, err := IntersectBag(); err != ErrNoLists {
		t.Fatal("empty bag intersection accepted")
	}
}

func TestListsShareFamilyAcrossCalls(t *testing.T) {
	// Two independently preprocessed lists (same seed) must be compatible.
	a := mustPreprocess(t, []uint32{1, 2, 3, 10, 20})
	b := mustPreprocess(t, []uint32{2, 10, 30})
	got, err := IntersectWith(RanGroup, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(sortedU32(got), []uint32{2, 10}) {
		t.Fatalf("got %v", got)
	}
}

func seqSet(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// TestAutoSkewThresholdBoundary pins the exact size ratio at which Auto
// switches from RanGroupScan to HashBin.
func TestAutoSkewThresholdBoundary(t *testing.T) {
	const minN = 10
	small := mustPreprocess(t, seqSet(minN))
	atThreshold := mustPreprocess(t, seqSet(minN*AutoSkewThreshold))
	belowThreshold := mustPreprocess(t, seqSet(minN*AutoSkewThreshold-1))
	if got := autoPick([]*List{small, atThreshold}); got != HashBin {
		t.Fatalf("ratio = threshold: auto = %v, want HashBin", got)
	}
	if got := autoPick([]*List{atThreshold, small}); got != HashBin {
		t.Fatalf("order must not matter: auto = %v, want HashBin", got)
	}
	if got := autoPick([]*List{small, belowThreshold}); got != RanGroupScan {
		t.Fatalf("ratio just below threshold: auto = %v, want RanGroupScan", got)
	}
	empty := mustPreprocess(t, nil)
	if got := autoPick([]*List{empty, atThreshold}); got != Merge {
		t.Fatalf("empty operand: auto = %v, want Merge", got)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range append([]Algorithm{Auto}, Algorithms()...) {
		got, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %v", a, got)
		}
	}
	if a, err := ParseAlgorithm("rangroupscan"); err != nil || a != RanGroupScan {
		t.Fatalf("case-insensitive parse = %v, %v", a, err)
	}
	if _, err := ParseAlgorithm("NoSuchAlgo"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := ParseAlgorithm(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func ExampleIntersectSorted() {
	l1, _ := Preprocess([]uint32{1, 3, 5, 7, 9})
	l2, _ := Preprocess([]uint32{3, 4, 5, 6, 7})
	res, _ := IntersectSorted(l1, l2)
	fmt.Println(res)
	// Output: [3 5 7]
}
