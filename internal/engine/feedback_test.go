package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fastintersect/internal/plan"
	"fastintersect/internal/race"
	"fastintersect/internal/sets"
)

// feedbackTestCosts returns a deliberately mis-priced base: the gallop
// probe priced far too cheap, the way a stale cost table looks after the
// index drifts. The feedback loop must learn corrections on top of it
// without ever changing results.
func feedbackTestCosts() *plan.Costs {
	c := plan.DefaultCosts()
	c.GallopProbe /= 16
	return c
}

// TestFeedbackLoopEndToEnd drives the adaptive loop through the real query
// path: every query is traced (TraceSample 1) and uncached (CacheSize 0),
// so each conjunction is harvested into the feedback store; after enough
// traffic the re-fit must have run, corrections must sit inside their
// clamps, the stats/metrics surfaces must report the loop — and every
// result along the way must equal the reference, because feedback is
// perf-only by construction.
func TestFeedbackLoopEndToEnd(t *testing.T) {
	const numDocs = 20_000
	e := buildTestEngine(t, Config{
		Shards:       2,
		PlanFeedback: true,
		TraceSample:  1,
		PlanCosts:    feedbackTestCosts(),
	}, numDocs)

	type expectation struct {
		q    string
		want []uint32
	}
	var exps []expectation
	for _, tq := range testQueries {
		if tq.pred == nil {
			continue
		}
		exps = append(exps, expectation{tq.q, refEval(numDocs, tq.pred)})
	}
	// Enough traffic for several refit windows (one observation per
	// conjunction per query).
	for rep := 0; rep < 80; rep++ {
		for _, exp := range exps {
			res, err := e.Query(exp.q)
			if err != nil {
				t.Fatalf("Query(%q): %v", exp.q, err)
			}
			if !sets.Equal(res.Docs, exp.want) {
				t.Fatalf("rep %d: Query(%q) diverged with feedback on: %d docs, want %d",
					rep, exp.q, len(res.Docs), len(exp.want))
			}
		}
	}

	st := e.Stats()
	if !st.PlanFeedback {
		t.Fatal("Stats().PlanFeedback = false on a feedback engine")
	}
	if st.FeedbackObservations == 0 {
		t.Fatal("no observations harvested despite TraceSample=1")
	}
	if st.FeedbackRefits == 0 {
		t.Fatalf("no refit after %d observations", st.FeedbackObservations)
	}
	for k, c := range st.KernelCorrections {
		if c < 1.0/16 || c > 16 {
			t.Fatalf("correction for %s out of clamp: %v", k, c)
		}
	}
	// The mis-calibration under-prices the probe kernels 16×, so at least
	// one correction should have moved and published an epoch.
	if st.FeedbackEpoch == 0 {
		t.Fatalf("no correction snapshot published; corrections=%v rows_err=%v",
			st.KernelCorrections, st.EstRowsError)
	}

	// The metric series exist and render.
	var sb strings.Builder
	e.Metrics().WritePrometheus(&sb)
	out := sb.String()
	for _, name := range []string{
		"fsi_plan_est_rows_error",
		"fsi_plan_refits_total",
		"fsi_plan_feedback_observations_total",
		"fsi_plan_feedback_epoch",
		`fsi_plan_kernel_correction{kernel="Gallop"}`,
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("metrics output missing %s", name)
		}
	}
}

// TestFeedbackEpochInvalidatesPlanCache pins the cache interaction: a
// published feedback epoch must force cached plans to re-price (via the
// statsEpoch+feedbackEpoch sum), visible as plan-cache misses after a
// refit that publishes.
func TestFeedbackEpochInvalidatesPlanCache(t *testing.T) {
	const numDocs = 20_000
	e := buildTestEngine(t, Config{
		Shards:       1,
		PlanFeedback: true,
		TraceSample:  1,
		PlanCosts:    feedbackTestCosts(),
	}, numDocs)
	const q = "m2 AND m3"
	// Warm the plan cache, then hammer until an epoch publishes.
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000 && e.fb.Epoch() == 0; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if e.fb.Epoch() == 0 {
		t.Skip("no epoch published under this machine's timings; covered by TestFeedbackLoopEndToEnd")
	}
	missesBefore := e.met.planMisses.Value()
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := e.met.planMisses.Value(); got == missesBefore {
		t.Fatal("plan served from cache across a feedback epoch bump; cached plan was not re-priced")
	}
}

// TestFeedbackRefitRaceUnderChurn exercises Observe/refit/Costs/Stats from
// many goroutines while the index churns — the CI race gate runs it with
// -race -count=2. Correctness of results is not asserted mid-churn (the
// corpus is moving); the invariants are: no error, no race, corrections
// always inside their clamps.
func TestFeedbackRefitRaceUnderChurn(t *testing.T) {
	const numDocs = 4000
	e := buildTestEngine(t, Config{
		Shards:           2,
		PlanFeedback:     true,
		TraceSample:      1,
		CacheSize:        16,
		CompactThreshold: 512,
		PlanCosts:        feedbackTestCosts(),
	}, numDocs)

	var wg sync.WaitGroup
	// Queriers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				tq := testQueries[(g+i)%len(testQueries)]
				if tq.pred == nil {
					continue
				}
				if _, err := e.Query(tq.q); err != nil {
					t.Errorf("Query(%q): %v", tq.q, err)
					return
				}
				if _, err := e.QueryCount(tq.q); err != nil {
					t.Errorf("QueryCount(%q): %v", tq.q, err)
					return
				}
			}
		}(g)
	}
	// Mutator: adds fresh documents, deletes half of them again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			d := uint32(numDocs + i)
			terms := []string{"all", fmt.Sprintf("m%d", 2+i%12)}
			if err := e.AddDocument(d, terms); err != nil {
				t.Errorf("AddDocument(%d): %v", d, err)
				return
			}
			if i%2 == 0 {
				if _, err := e.DeleteDocument(d); err != nil {
					t.Errorf("DeleteDocument(%d): %v", d, err)
					return
				}
			}
		}
	}()
	// Stats/metrics scraper racing the refits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			st := e.Stats()
			for k, c := range st.KernelCorrections {
				if c < 1.0/16 || c > 16 {
					t.Errorf("correction for %s out of clamp mid-churn: %v", k, c)
					return
				}
			}
			var sb strings.Builder
			e.Metrics().WritePrometheus(&sb)
		}
	}()
	wg.Wait()

	// Post-churn: a fresh query must still be answerable and corrections
	// must remain bounded.
	if _, err := e.Query("m2 AND m3"); err != nil {
		t.Fatal(err)
	}
	for k := plan.Kernel(1); int(k) < plan.KernelCount; k++ {
		if c := e.fb.Correction(k); c < 1.0/16 || c > 16 {
			t.Fatalf("kernel %v correction out of clamp after churn: %v", k, c)
		}
	}
}

// TestTraceAttributionCostliestRun pins how a traced operator is labelled
// when its segments (or shards) ran different kernels: the run with the
// largest estimate names it, and every run's estimate still adds up.
func TestTraceAttributionCostliestRun(t *testing.T) {
	var a opAcc
	a.ranKernel(plan.KernelMerge, 10)
	a.ranKernel(plan.KernelGallop, 100)
	a.ranKernel(plan.KernelMerge, 5)
	if a.kernel != plan.KernelGallop || a.estNs != 115 {
		t.Fatalf("within a shard: kernel %v, estNs %v; want Gallop, 115", a.kernel, a.estNs)
	}
	// The next shard is evaluated on the same context and records into the
	// same accumulator.
	a.ranKernel(plan.KernelBitsegAnd, 200)
	if a.kernel != plan.KernelBitsegAnd || a.estNs != 315 {
		t.Fatalf("across shards: kernel %v, estNs %v; want BitsegAnd, 315", a.kernel, a.estNs)
	}
}

// driftDistortion is the factor TestFeedbackDrift under-prices the
// bitmap-probe kernel by. It keeps the distorted BitProbe below every
// truthful candidate at the post-drift shape, so the frozen model keeps
// picking it, and stays inside the feedback store's 16× correction clamp,
// so the loop can undo it.
const driftDistortion = 12

// driftQueries are TestFeedbackDrift's conjunctions: "sel" against each of
// the four balanced lists.
var driftQueries = []string{"sel AND big0", "sel AND big1", "sel AND big2", "sel AND big3"}

// TestFeedbackDrift is the acceptance check for the adaptive planning loop
// under cost-model drift. Two engines start from the same anchors with the
// bitmap-probe kernel priced driftDistortion× too cheap — the way a model
// calibrated on tiny cache-resident lists misjudges memory-bound linear
// passes — over a corpus where probing is right anyway: four balanced
// lists and a "sel" list as dense as they are. The frozen engine keeps its
// anchors; the feedback engine compares estimated with observed
// nanoseconds and learns corrections. Then "sel" becomes 64× sparser, so
// that its lists are 36–64 times the size of "sel" and galloping clearly
// beats the probe (at 9–16 times, 16× sparser, the two run close and the
// corrected loop settled on either). The frozen engine keeps probing; the
// corrected one prices the probe truthfully and gallops instead.
//
// Before the drift the loop must cost nothing that matters. The cause is
// checked exactly: both engines run the same kernel on every sampled
// conjunction. The cost is timed as paired, interleaved blocks of a fixed
// query count, and the gate reads the median of the per-pair ratios, so a
// loop that adds real time to every query fails while host noise, which
// moves single blocks, does not.
func TestFeedbackDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("adapts and times two engines through two corpus phases")
	}
	if race.Enabled {
		// The loop learns from measured kernel timings, which race
		// instrumentation distorts.
		t.Skip("race instrumentation distorts the timings the feedback loop learns from")
	}
	miscal := *plan.DefaultCosts()
	miscal.BitProbeElem /= driftDistortion
	mk := func(feedback bool) *Engine {
		// Both engines trace 1 in 4 queries, so their timings differ by
		// planning alone.
		return New(Config{Shards: 2, PlanFeedback: feedback, TraceSample: 4, PlanCosts: &miscal})
	}
	frozen, adaptive := mk(false), mk(true)
	probe := plan.KernelBitProbe.String()

	installDrift(t, frozen, 512)
	installDrift(t, adaptive, 512)
	// The BitProbe correction climbs by at most 4× per re-fit; give the
	// loop enough re-fits to settle before measuring.
	adaptDrift(t, frozen, 0, 256)
	adaptDrift(t, adaptive, 12, 30_000)
	preRatio, fPre, aPre := timeDrift(t, frozen, adaptive)
	t.Logf("pre-drift feedback/frozen %.3f; kernels frozen %v, feedback %v", preRatio, fPre, aPre)
	var preKernel string
	for k := range fPre {
		preKernel = k
	}
	if len(fPre) != 1 || len(aPre) != 1 || aPre[preKernel] == 0 {
		t.Fatalf("pre-drift kernels differ: frozen %v, feedback %v; want one and the same kernel on every sampled conjunction", fPre, aPre)
	}
	// 1.05 is the design budget; the gate allows a little slack on top
	// while still catching a loop that costs real time.
	if preRatio > 1.10 {
		t.Errorf("pre-drift feedback/frozen ratio %.3f; the loop must be ~free when plans are already right", preRatio)
	}

	// The drift: both engines replan (the install bumps their stats
	// epochs), but the frozen anchors still say streaming ~25k+512
	// elements through the bitmap is cheaper than 512 gallop probes.
	installDrift(t, frozen, 64*512)
	installDrift(t, adaptive, 64*512)
	adaptDrift(t, frozen, 0, 256)
	adaptDrift(t, adaptive, 2, 30_000)
	postRatio, fPost, aPost := timeDrift(t, frozen, adaptive)
	st := adaptive.Stats()
	corr := 1.0
	if c, ok := st.KernelCorrections[probe]; ok {
		corr = c
	}
	t.Logf("post-drift feedback/frozen %.3f; kernels frozen %v, feedback %v; BitProbe correction %.2f after %d refits",
		postRatio, fPost, aPost, corr, st.FeedbackRefits)
	if st.FeedbackRefits == 0 || st.FeedbackObservations == 0 {
		t.Fatalf("feedback engine never refit (refits=%d, obs=%d); the loop never engaged", st.FeedbackRefits, st.FeedbackObservations)
	}
	if corr <= 1.5 {
		t.Errorf("BitProbe correction %.2f; want it learned well above 1 (the anchor was under-priced %d×)", corr, driftDistortion)
	}
	if s := share(fPost, probe); s < 0.5 {
		t.Errorf("frozen engine ran BitProbe on only %.0f%% of sampled conjunctions post-drift; the mis-calibration scenario is vacuous", 100*s)
	}
	if s := share(aPost, probe); s >= 0.5 {
		t.Errorf("feedback engine still ran BitProbe on %.0f%% of sampled conjunctions post-drift (frozen: %.0f%%); corrections did not flip the plans",
			100*s, 100*share(fPost, probe))
	}
	if postRatio >= 1.0 {
		t.Errorf("post-drift feedback/frozen ratio %.3f; corrected plans must beat the frozen mis-calibration", postRatio)
	}
}

// installDrift installs TestFeedbackDrift's corpus over a 2²⁴-docID
// universe, sparse enough that the bitmap tier prices itself out: four
// balanced lists of 18k–33k postings and "sel", every selStride-th docID.
func installDrift(t *testing.T, e *Engine, selStride int) {
	t.Helper()
	const span, base = 1 << 24, 512
	every := func(stride, offset int) []uint32 {
		out := make([]uint32, 0, span/stride+1)
		for d := offset; d < span; d += stride {
			out = append(out, uint32(d))
		}
		return out
	}
	b := e.NewBuilder()
	if err := b.AddPosting("sel", every(selStride, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := b.AddPosting(fmt.Sprintf("big%d", i), every(base+i*base/4, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
}

// adaptDrift replays driftQueries n times, or with refits > 0 until the
// engine has run that many more re-fit passes (at most n queries).
func adaptDrift(t *testing.T, e *Engine, refits uint64, n int) {
	t.Helper()
	target := e.Stats().FeedbackRefits + refits
	for i := 0; i < n; i++ {
		if _, err := e.Query(driftQueries[i%len(driftQueries)]); err != nil {
			t.Fatal(err)
		}
		if refits > 0 && i%64 == 0 && e.Stats().FeedbackRefits >= target {
			return
		}
	}
}

// timeDrift times driftQueries on both engines in pairs of fixed-count
// blocks, alternating which engine runs first, and returns the median over
// the pairs of adaptive's block time divided by frozen's, with the kernels
// each engine ran on sampled conjunctions meanwhile.
func timeDrift(t *testing.T, frozen, adaptive *Engine) (ratio float64, fExecs, aExecs map[string]uint64) {
	t.Helper()
	const pairs, block = 101, 64
	engines := [2]*Engine{frozen, adaptive}
	before := [2]map[string]uint64{frozen.Stats().KernelExecs, adaptive.Stats().KernelExecs}
	ratios := make([]float64, pairs)
	for p := range ratios {
		var ns [2]time.Duration
		for k := range engines {
			i := k ^ p&1
			start := time.Now()
			for j := 0; j < block; j++ {
				if _, err := engines[i].Query(driftQueries[j%len(driftQueries)]); err != nil {
					t.Fatal(err)
				}
			}
			ns[i] = time.Since(start)
		}
		ratios[p] = float64(ns[1]) / float64(ns[0])
	}
	slices.Sort(ratios)
	return ratios[pairs/2], execsSince(frozen, before[0]), execsSince(adaptive, before[1])
}

// execsSince returns the kernel executions e recorded on sampled
// conjunctions since its KernelExecs read before.
func execsSince(e *Engine, before map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, n := range e.Stats().KernelExecs {
		if n > before[k] {
			out[k] = n - before[k]
		}
	}
	return out
}

// share returns kernel's fraction of the executions in execs.
func share(execs map[string]uint64, kernel string) float64 {
	var total uint64
	for _, n := range execs {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(execs[kernel]) / float64(total)
}
