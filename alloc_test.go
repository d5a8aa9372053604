package fastintersect

import (
	"testing"

	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
	"fastintersect/internal/xhash"
)

// allocLists builds two preprocessed lists with warmed structure caches.
func allocLists(t *testing.T, algo Algorithm) []*List {
	t.Helper()
	rng := xhash.NewRNG(0xA110C)
	a, b := workload.PairWithIntersection(1<<20, 4096, 8192, 128, rng)
	la, err := Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Preprocess(b)
	if err != nil {
		t.Fatal(err)
	}
	lists := []*List{la, lb}
	if _, err := IntersectWith(algo, lists...); err != nil { // build cached structures
		t.Fatal(err)
	}
	return lists
}

// TestIntersectIntoAllocs pins the tentpole guarantee: once the per-list
// structures are built and the context is warm, the buffered API runs the
// core kernels with zero allocations per operation. A regression here means
// some layer started allocating on the hot path again.
func TestIntersectIntoAllocs(t *testing.T) {
	for _, tc := range []struct {
		algo Algorithm
		max  float64
	}{
		{RanGroupScan, 0},
		{RanGroup, 0},
		{HashBin, 0},
		{Bitseg, 0},
		{BitProbe, 0},
		{Merge, 8}, // baselines allocate internally; just pin against blowup
	} {
		t.Run(tc.algo.String(), func(t *testing.T) {
			lists := allocLists(t, tc.algo)
			ctx := GetExecContext()
			defer ctx.Release()
			dst := make([]uint32, 0, 8192)
			for i := 0; i < 3; i++ { // warm context scratch
				if _, err := IntersectInto(ctx, dst[:0], tc.algo, lists...); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			n := testing.AllocsPerRun(100, func() {
				_, err = IntersectInto(ctx, dst[:0], tc.algo, lists...)
			})
			if err != nil {
				t.Fatal(err)
			}
			if n > tc.max {
				t.Fatalf("IntersectInto(%v) allocates %.1f times per op, want ≤ %v", tc.algo, n, tc.max)
			}
		})
	}
}

// TestIntersectWithBufAllocs pins the same guarantee for the
// context-buffer form, the one the acceptance criterion names: a cached
// 2-list RanGroupScan intersection at 0 allocs/op.
func TestIntersectWithBufAllocs(t *testing.T) {
	lists := allocLists(t, RanGroupScan)
	ctx := GetExecContext()
	defer ctx.Release()
	for i := 0; i < 3; i++ { // warm context scratch and result buffer
		if _, err := IntersectWithBuf(ctx, RanGroupScan, lists...); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	n := testing.AllocsPerRun(100, func() {
		_, err = IntersectWithBuf(ctx, RanGroupScan, lists...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("IntersectWithBuf(RanGroupScan) allocates %.1f times per op, want 0", n)
	}
}

// TestIntersectIntoMatchesIntersectWith checks the buffered API against the
// allocating API for every algorithm, including k-way and skewed shapes.
func TestIntersectIntoMatchesIntersectWith(t *testing.T) {
	rng := xhash.NewRNG(0xBEEF)
	shapes := [][]int{{512, 512}, {128, 4096}, {512, 512, 512}, {64, 256, 1024, 4096}}
	for _, ns := range shapes {
		raw := workload.KWithIntersection(1<<18, ns, 16, rng)
		lists := make([]*List, len(raw))
		for i, s := range raw {
			l, err := Preprocess(s)
			if err != nil {
				t.Fatal(err)
			}
			lists[i] = l
		}
		for _, algo := range Algorithms() {
			if mx := algo.MaxSets(); mx > 0 && len(lists) > mx {
				continue
			}
			want, err := IntersectWith(algo, lists...)
			if err != nil {
				t.Fatalf("%v/%d: %v", algo, len(ns), err)
			}
			ctx := GetExecContext()
			got, err := IntersectInto(ctx, make([]uint32, 0, 16), algo, lists...)
			if err != nil {
				t.Fatalf("%v/%d: %v", algo, len(ns), err)
			}
			sets.SortU32(want)
			gotCopy := sets.Clone(got)
			sets.SortU32(gotCopy)
			if !sets.Equal(gotCopy, want) {
				t.Fatalf("%v over %v: IntersectInto disagrees with IntersectWith (%d vs %d elements)",
					algo, ns, len(gotCopy), len(want))
			}
			// And the buffer-owned form.
			bufOut, err := IntersectWithBuf(ctx, algo, lists...)
			if err != nil {
				t.Fatal(err)
			}
			bufCopy := sets.Clone(bufOut)
			sets.SortU32(bufCopy)
			if !sets.Equal(bufCopy, want) {
				t.Fatalf("%v over %v: IntersectWithBuf disagrees", algo, ns)
			}
			ctx.Release()
		}
	}
}

// TestResetClearsShrunkTails guards the pool-pinning leak: a context used
// for a wide intersection and then a narrower one reslices its operand
// arrays down, so Reset must clear the full capacity — entries beyond the
// current length still hold the wide call's pointers.
func TestResetClearsShrunkTails(t *testing.T) {
	rng := xhash.NewRNG(0x4E5E7)
	raw := workload.KWithIntersection(1<<18, []int{256, 256, 256, 256}, 8, rng)
	lists := make([]*List, len(raw))
	for i, s := range raw {
		l, err := Preprocess(s)
		if err != nil {
			t.Fatal(err)
		}
		lists[i] = l
	}
	ctx := GetExecContext()
	defer ctx.Release()
	if _, err := IntersectWithBuf(ctx, RanGroupScan, lists...); err != nil {
		t.Fatal(err)
	}
	if _, err := IntersectWithBuf(ctx, RanGroupScan, lists[:2]...); err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	for _, p := range ctx.rgs[:cap(ctx.rgs)] {
		if p != nil {
			t.Fatal("Reset left a RanGroupScan operand pointer in the shrunk tail")
		}
	}
}

// TestIntersectWithBufReuse verifies the documented aliasing contract: a
// second query on the same context reuses (and overwrites) the buffer of
// the first.
func TestIntersectWithBufReuse(t *testing.T) {
	lists := allocLists(t, RanGroupScan)
	ctx := GetExecContext()
	defer ctx.Release()
	first, err := IntersectWithBuf(ctx, RanGroupScan, lists...)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := sets.Clone(first)
	second, err := IntersectWithBuf(ctx, RanGroupScan, lists...)
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(second, snapshot) {
		t.Fatal("repeated IntersectWithBuf changed the result")
	}
	if len(first) > 0 && len(second) > 0 && &first[0] != &second[0] {
		t.Fatal("IntersectWithBuf did not reuse the context buffer")
	}
}
