package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

// feedbackTestCosts returns a deliberately mis-calibrated base: the
// gallop probe priced far too cheap, the way a stale startup
// calibration looks after the index drifts. The feedback loop must learn
// corrections on top of it without ever changing results.
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
	agg, other := getTraceRec(1), getTraceRec(1)
	defer putTraceRec(agg)
	defer putTraceRec(other)
	agg.ops[0] = a
	other.ops[0].ranKernel(plan.KernelBitsegAnd, 200)
	agg.merge(other)
	if got := agg.ops[0]; got.kernel != plan.KernelBitsegAnd || got.estNs != 315 {
		t.Fatalf("across shards: kernel %v, estNs %v; want BitsegAnd, 315", got.kernel, got.estNs)
	}
}
