package harness

import (
	"fmt"
	"testing"

	"fastintersect/internal/engine"
	"fastintersect/internal/invindex"
	"fastintersect/internal/plan"
)

// The feedback-drift experiment measures what the adaptive planning loop is
// for: a cost model whose calibration has gone stale. Two identical engines
// start from the same deliberately mis-calibrated anchors — the merge anchor
// priced feedbackDistortion× too cheap, the way a model calibrated on tiny
// cache-resident lists misjudges memory-bound merges — over a corpus where
// the mispricing is harmless: balanced dense conjunctions, a regime where
// the linear merge genuinely wins no matter what it costs on paper. Then
// the corpus drifts: the "sel" term becomes selective, galloping it into
// its partners is now an order of magnitude cheaper, but the frozen engine
// keeps planning merges because its anchors still say merging is nearly
// free. The feedback engine has been comparing estimated to observed
// nanoseconds all along; its learned corrections re-price the merge to its
// true cost and its plans flip. The oracle — a fresh engine with
// machine-calibrated anchors on the post-drift corpus — bounds how much of
// the gap corrections recover.
//
// The distortion rides on plan.DefaultCosts (fixed coefficients), not the
// per-machine calibration, so the frozen engine's picks are deterministic
// across machines; only the learned corrections and the measured
// nanoseconds are machine-dependent, which is the point.

// feedbackDistortion is the factor the merge anchor is under-priced by. It
// must keep the distorted merge below every truthful candidate at the
// post-drift shape (so the frozen model keeps picking it) and stay inside
// the feedback store's correction clamp (16×, so the loop can fully undo
// it).
const feedbackDistortion = 12

func init() {
	register(Experiment{
		ID:    "feedback-drift",
		Title: "Adaptive planning under cost-model drift: frozen vs feedback-corrected vs oracle",
		Paper: "§4 cost-model motivation; engine tier (no paper artifact); seeds BENCH_feedback.json",
		Run:   runFeedbackBench,
	})
}

// FeedbackScenario is one (phase, engine) measurement cell.
type FeedbackScenario struct {
	Phase   string  `json:"phase"`  // "pre-drift" | "post-drift"
	Engine  string  `json:"engine"` // "frozen" | "feedback" | "oracle"
	Queries int     `json:"queries"`
	NsPerOp int64   `json:"ns_per_op"`
	QPS     float64 `json:"qps"`
	// MergeExecShare is the fraction of sampled conjunction-kernel
	// executions during the measurement window that ran the under-priced
	// merge (from the engine's executed-kernel counters, so it reflects the
	// shard-level re-pricing that actually dispatches kernels). Pre-drift
	// merging is the right call for everyone; post-drift it is the mispick
	// signature — the frozen engine keeps merging, the corrected and oracle
	// engines should not.
	MergeExecShare float64 `json:"merge_exec_share"`
	// MergeCorrection is the engine's live multiplicative correction on the
	// merge anchor (1 = none; the feedback engine should learn roughly the
	// distortion factor, modulo the gap between the default and true
	// per-element cost).
	MergeCorrection float64 `json:"merge_correction"`
	Refits          uint64  `json:"refits"`
	Observations    uint64  `json:"observations"`
}

// FeedbackReport is the BENCH_feedback.json artifact.
type FeedbackReport struct {
	Schema     string             `json:"schema"`
	Scale      string             `json:"scale"`
	Seed       uint64             `json:"seed"`
	Distortion float64            `json:"distortion"`
	Scenarios  []FeedbackScenario `json:"scenarios"`
	// PreDriftRatio is feedback/frozen ns/op before drift — the price of the
	// loop when the (mis)calibration happens to pick the right plans anyway.
	// Target: ≤ 1.05.
	PreDriftRatio float64 `json:"pre_drift_ratio"`
	// PostDriftRatio is feedback/frozen ns/op after drift — below 1 means
	// the corrected plans beat the frozen ones. Target: < 1.
	PostDriftRatio float64 `json:"post_drift_ratio"`
	// OracleRatio is feedback/oracle ns/op after drift — how close learned
	// corrections get to a fresh, truthfully calibrated engine.
	OracleRatio float64 `json:"oracle_ratio"`
}

// strideList returns every stride-th docID in [offset, span).
func strideList(span, stride, offset int) []uint32 {
	out := make([]uint32, 0, span/stride+1)
	for d := offset; d < span; d += stride {
		out = append(out, uint32(d))
	}
	return out
}

// feedbackCorpus builds the experiment's posting lists over a sparse
// universe (span ≫ list sizes, so the bitmap tier prices itself out): four
// balanced dense lists and one "sel" list whose stride is the phase's
// variable — matching the others pre-drift, 16× sparser post-drift.
func feedbackCorpus(span, base, selStride int) map[string][]uint32 {
	postings := map[string][]uint32{
		"sel": strideList(span, selStride, 1),
	}
	for i := 0; i < 4; i++ {
		postings[fmt.Sprintf("big%d", i)] = strideList(span, base+i*base/4, 0)
	}
	return postings
}

func feedbackInstall(e *engine.Engine, postings map[string][]uint32) {
	b := e.NewBuilder()
	for term, docs := range postings {
		if err := b.AddPosting(term, docs); err != nil {
			panic(fmt.Sprintf("harness: feedback bench build: %v", err))
		}
	}
	if err := e.Install(b); err != nil {
		panic(fmt.Sprintf("harness: feedback bench install: %v", err))
	}
}

var feedbackQueries = []string{
	"sel AND big0", "sel AND big1", "sel AND big2", "sel AND big3",
}

// feedbackAdapt replays the query stream until the engine has run at least
// `refits` additional re-fit passes (or the query cap is hit). With refits
// 0 it is a plain warm-up loop — what the frozen and oracle engines get.
func feedbackAdapt(e *engine.Engine, refits uint64, cap int) {
	target := e.Stats().FeedbackRefits + refits
	for i := 0; i < cap; i++ {
		q := feedbackQueries[i%len(feedbackQueries)]
		if _, err := e.Query(q); err != nil {
			panic(fmt.Sprintf("harness: feedback adapt query %q: %v", q, err))
		}
		if i%64 == 0 && e.Stats().FeedbackRefits >= target {
			return
		}
	}
}

// kernelExecTotals sums an engine's sampled kernel-execution counters and
// returns (merge execs, all execs).
func kernelExecTotals(st engine.Stats) (uint64, uint64) {
	var total uint64
	for _, n := range st.KernelExecs {
		total += n
	}
	return st.KernelExecs[plan.KernelMerge.String()], total
}

// feedbackEngine names one engine of a measured phase.
type feedbackEngine struct {
	name string
	e    *engine.Engine
}

// feedbackMeasure times the query mix on each engine (min over reps) and
// snapshots each engine's executed-kernel mix and feedback state into a
// scenario cell. The engines are timed interleaved, rep by rep, with the
// same number of reps each and alternating which runs first: the report
// divides one cell by another, and timing all of one engine's reps before
// the other's (or always in the same order) would let host drift decide
// the ratio.
func feedbackMeasure(phase string, reps int, engines ...feedbackEngine) []FeedbackScenario {
	// A single noisy sample shows up directly in the gated ratios: always
	// take the min over at least two benchmark runs.
	if reps < 2 {
		reps = 2
	}
	mergeBefore := make([]uint64, len(engines))
	totalBefore := make([]uint64, len(engines))
	for i, fe := range engines {
		mergeBefore[i], totalBefore[i] = kernelExecTotals(fe.e.Stats())
	}
	ns := make([]int64, len(engines))
	for rep := 0; rep < reps; rep++ {
		for k := range engines {
			i := k
			if rep%2 == 1 {
				i = len(engines) - 1 - k // alternate which engine runs first
			}
			fe := engines[i]
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if _, err := fe.e.Query(feedbackQueries[j%len(feedbackQueries)]); err != nil {
						b.Fatal(err)
					}
				}
			})
			if rep == 0 || r.NsPerOp() < ns[i] {
				ns[i] = r.NsPerOp()
			}
		}
	}
	cells := make([]FeedbackScenario, len(engines))
	for i, fe := range engines {
		st := fe.e.Stats()
		mergeAfter, totalAfter := kernelExecTotals(st)
		share := 0.0
		if d := totalAfter - totalBefore[i]; d > 0 {
			share = float64(mergeAfter-mergeBefore[i]) / float64(d)
		}
		corr := 1.0
		if c, ok := st.KernelCorrections[plan.KernelMerge.String()]; ok {
			corr = c
		}
		qps := 0.0
		if ns[i] > 0 {
			qps = 1e9 / float64(ns[i])
		}
		cells[i] = FeedbackScenario{
			Phase:           phase,
			Engine:          fe.name,
			Queries:         len(feedbackQueries),
			NsPerOp:         ns[i],
			QPS:             qps,
			MergeExecShare:  share,
			MergeCorrection: corr,
			Refits:          st.FeedbackRefits,
			Observations:    st.FeedbackObservations,
		}
	}
	return cells
}

// FeedbackBench runs the drift experiment and returns the machine-readable
// report (the BENCH_feedback.json artifact emitted by fsibench
// -feedback-json).
func FeedbackBench(cfg Config) *FeedbackReport {
	span, base := 1<<24, 512 // dense lists ≈ 23k–33k over a 16.7M universe
	adaptCap := 30_000
	if cfg.Full() {
		span, base = 1<<26, 512 // ≈ 93k–131k lists
		adaptCap = 60_000
	}
	// Both drifting engines share one mis-calibrated snapshot; the feedback
	// store copies it on publish, never mutates it.
	miscal := *plan.DefaultCosts()
	miscal.MergeElem /= feedbackDistortion
	mk := func(feedback bool, costs *plan.Costs) *engine.Engine {
		return engine.New(engine.Config{
			Shards:       2,
			Storage:      invindex.StorageRaw,
			PlanFeedback: feedback,
			// All engines trace 1-in-4 so the measured deltas isolate
			// planning, not tracing.
			TraceSample: 4,
			PlanCosts:   costs,
		})
	}
	frozen := mk(false, &miscal)
	adaptive := mk(true, &miscal)

	rep := &FeedbackReport{
		Schema:     "fsibench/feedback/v1",
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		Distortion: feedbackDistortion,
	}

	// Phase 1 — pre-drift: "sel" is as dense as its partners, so the linear
	// merge the distorted anchors love is also the genuinely right plan.
	// The feedback engine learns its corrections here (the estimated-vs-
	// observed gap exists regardless of whether the pick is right) and must
	// end up planning the same merges — the loop is ~free when the plans
	// are already right.
	pre := feedbackCorpus(span, base, base)
	feedbackInstall(frozen, pre)
	feedbackInstall(adaptive, pre)
	feedbackAdapt(frozen, 0, 256) // warm-up only: no feedback store, no refits
	// The merge correction climbs by at most 4× per re-fit (and the raw
	// chooser's other candidates, Gallop and BitsegAnd, stay dearer than
	// even a fully corrected merge on these balanced lists); give the loop
	// enough re-fit rounds to settle before measuring.
	feedbackAdapt(adaptive, 12, adaptCap)
	preCells := feedbackMeasure("pre-drift", cfg.Reps, feedbackEngine{"frozen", frozen}, feedbackEngine{"feedback", adaptive})
	fPre, aPre := preCells[0], preCells[1]

	// Phase 2 — drift: "sel" becomes 16× sparser. Both engines replan (the
	// install bumps their stats epochs), but the frozen anchors still say
	// merging ~23k+2k elements is cheaper than ~2k probes, so the frozen
	// engine keeps merging; the feedback engine's ratcheted merge
	// correction prices the merge truthfully and its plans flip to gallop.
	post := feedbackCorpus(span, base, 16*base)
	feedbackInstall(frozen, post)
	feedbackInstall(adaptive, post)
	feedbackAdapt(frozen, 0, 256)
	feedbackAdapt(adaptive, 2, adaptCap)
	postCells := feedbackMeasure("post-drift", cfg.Reps, feedbackEngine{"frozen", frozen}, feedbackEngine{"feedback", adaptive})
	fPost, aPost := postCells[0], postCells[1]

	// Oracle: a fresh engine with truthful (machine-calibrated) anchors on
	// the post-drift corpus.
	oracle := mk(false, nil)
	feedbackInstall(oracle, post)
	feedbackAdapt(oracle, 0, 256)
	oPost := feedbackMeasure("post-drift", cfg.Reps, feedbackEngine{"oracle", oracle})[0]

	rep.Scenarios = []FeedbackScenario{fPre, aPre, fPost, aPost, oPost}
	if fPre.NsPerOp > 0 {
		rep.PreDriftRatio = float64(aPre.NsPerOp) / float64(fPre.NsPerOp)
	}
	if fPost.NsPerOp > 0 {
		rep.PostDriftRatio = float64(aPost.NsPerOp) / float64(fPost.NsPerOp)
	}
	if oPost.NsPerOp > 0 {
		rep.OracleRatio = float64(aPost.NsPerOp) / float64(oPost.NsPerOp)
	}
	return rep
}

func runFeedbackBench(cfg Config) []*Table {
	rep := FeedbackBench(cfg)
	t := &Table{
		ID:    "feedback-drift",
		Title: "Query ns/op under cost-model drift (frozen anchors vs feedback corrections vs oracle)",
		Columns: []string{"phase", "engine", "ns/op", "qps", "merge share",
			"merge corr", "refits"},
		Notes: []string{
			fmt.Sprintf("both drifting engines start with the merge anchor under-priced %d×; the oracle is freshly calibrated on the post-drift corpus", feedbackDistortion),
			fmt.Sprintf("pre-drift feedback/frozen = %.3f (≤1.05 target: the loop is ~free when the plans are already right)", rep.PreDriftRatio),
			fmt.Sprintf("post-drift feedback/frozen = %.3f (<1 target: corrected plans stop merging around a selective term)", rep.PostDriftRatio),
			fmt.Sprintf("post-drift feedback/oracle = %.3f (how much of the oracle's advantage corrections recover)", rep.OracleRatio),
		},
	}
	for _, s := range rep.Scenarios {
		t.AddRow(s.Phase, s.Engine,
			fmt.Sprintf("%d", s.NsPerOp),
			fmt.Sprintf("%.0f", s.QPS),
			fmt.Sprintf("%.2f", s.MergeExecShare),
			fmt.Sprintf("%.2f", s.MergeCorrection),
			fmt.Sprintf("%d", s.Refits))
	}
	return []*Table{t}
}
