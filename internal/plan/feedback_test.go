package plan

import (
	"math"
	"sync"
	"testing"
)

// feedObserve pushes enough identical observations through f to guarantee
// at least one refit (fbRefitEvery observations, each carrying execs execs).
func feedObserve(f *Feedback, k Kernel, estRows int, estNs float64, execs, rows, ns int64) {
	for i := 0; i < fbRefitEvery; i++ {
		f.Observe(k, estRows, estNs, execs, rows, ns)
	}
}

func TestFeedbackCorrectionConverges(t *testing.T) {
	f := NewFeedback(DefaultCosts())
	// Gallop consistently runs 8× its estimate. One refit steps the
	// correction by at most fbStepMax; iterate until it converges.
	for round := 0; round < 4; round++ {
		c := f.Correction(KernelGallop)
		feedObserve(f, KernelGallop, 100, 1000*c, 1, 100, 8000)
	}
	got := f.Correction(KernelGallop)
	if got < 7.9 || got > 8.1 {
		t.Fatalf("correction did not converge to 8: got %v", got)
	}
	if f.Refits() == 0 {
		t.Fatalf("no refit ran")
	}
	if f.Epoch() == 0 {
		t.Fatalf("epoch never bumped despite an 8× correction")
	}
	if f.Costs() == DefaultCosts() || f.Costs().Corr[KernelGallop] == 0 {
		t.Fatalf("published snapshot missing correction: %+v", f.Costs().Corr)
	}
}

func TestFeedbackClamps(t *testing.T) {
	f := NewFeedback(DefaultCosts())
	// Absurd 1000× blowup: per-refit step is clamped at fbStepMax and the
	// total correction at fbCorrMax.
	feedObserve(f, KernelHashBin, 10, 100, 1, 10, 100_000)
	if got := f.Correction(KernelHashBin); got > fbStepMax {
		t.Fatalf("single refit stepped past the clamp: %v", got)
	}
	for round := 0; round < 10; round++ {
		feedObserve(f, KernelHashBin, 10, 100, 1, 10, 100_000)
	}
	if got := f.Correction(KernelHashBin); got != fbCorrMax {
		t.Fatalf("correction should rail at %v, got %v", fbCorrMax, got)
	}
	// And the floor, on a kernel estimated far too expensive.
	for round := 0; round < 10; round++ {
		feedObserve(f, KernelMerge, 10, 1_000_000, 1, 10, 100)
	}
	if got := f.Correction(KernelMerge); got != fbCorrMin {
		t.Fatalf("correction should floor at %v, got %v", fbCorrMin, got)
	}
}

func TestFeedbackNoiseFloorAndUntouchedKernels(t *testing.T) {
	f := NewFeedback(DefaultCosts())
	// Fewer than fbMinExecs executions in the window: correction must not
	// move even though the ratio is huge. Observe fbRefitEvery times with
	// execs on a DIFFERENT kernel to trigger the refit.
	for i := 0; i < fbMinExecs-1; i++ {
		f.Observe(KernelGroupScan, 10, 100, 1, 10, 100_000)
	}
	feedObserve(f, KernelMerge, 100, 100, 1, 100, 100)
	if got := f.Correction(KernelGroupScan); got != 1 {
		t.Fatalf("noise-floor kernel moved: %v", got)
	}
	if got := f.Correction(KernelBitsegAnd); got != 1 {
		t.Fatalf("unobserved kernel moved: %v", got)
	}
}

func TestFeedbackRowsError(t *testing.T) {
	f := NewFeedback(DefaultCosts())
	// Estimated 50 rows, actually 100: relative error 0.5.
	feedObserve(f, KernelGallop, 50, 1000, 1, 100, 1000)
	got := f.RowsError()
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("rows error = %v, want 0.5", got)
	}
}

func TestFeedbackDeadband(t *testing.T) {
	f := NewFeedback(DefaultCosts())
	// Actual ≈ estimate: refits run but no snapshot publishes, so cached
	// plans are not invalidated by jitter.
	feedObserve(f, KernelGallop, 100, 1000, 1, 100, 1050)
	if f.Refits() == 0 {
		t.Fatalf("refit did not run")
	}
	if f.Epoch() != 0 {
		t.Fatalf("epoch bumped inside the deadband (corr=%v)", f.Correction(KernelGallop))
	}
}

func TestFeedbackCorrectionFlipsChoosers(t *testing.T) {
	// A shape where gallop wins by default — but by less than the fbCorrMax
	// clamp, so a railed correction can still flip it. Lists with span 0
	// pin the pairwise composite case, raw lists with a span the pushdown
	// case (where the bitmap tier must be corrected away too).
	for _, ops := range [][]Operand{
		{{Len: 1024}, {Len: 65536}},
		{{Len: 1024, Shape: ShapeRaw, Span: 1 << 20}, {Len: 65536, Shape: ShapeRaw, Span: 1 << 20}},
	} {
		base := DefaultCosts()
		if got := ChooseStored(base, ops); got == KernelBitProbe {
			t.Fatalf("%v: baseline already probes; pick a different shape", ops)
		}
		skew := DefaultCosts()
		skew.Corr[KernelGallop] = 16
		skew.Corr[KernelBitsegAnd] = 16
		if got := ChooseStored(skew, ops); got != KernelBitProbe {
			t.Fatalf("%v: corrected = %v, want BitProbe", ops, got)
		}
	}
}

func TestFeedbackConcurrentObserve(t *testing.T) {
	f := NewFeedback(DefaultCosts())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := Kernel(1 + g%(KernelCount-1))
			for i := 0; i < 4*fbRefitEvery; i++ {
				f.Observe(k, 100, 1000, 2, 200, 4000)
				_ = f.Costs()
				_ = f.Correction(k)
				_ = f.RowsError()
			}
		}(g)
	}
	wg.Wait()
	if f.Observations() != 8*4*fbRefitEvery {
		t.Fatalf("lost observations: %d", f.Observations())
	}
	if f.Refits() == 0 {
		t.Fatalf("no refit under concurrency")
	}
	for k := Kernel(1); int(k) < KernelCount; k++ {
		if c := f.Correction(k); c < fbCorrMin || c > fbCorrMax {
			t.Fatalf("kernel %v correction out of bounds: %v", k, c)
		}
	}
}
