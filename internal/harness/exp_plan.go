package harness

import (
	"fmt"
	"strings"
	"testing"

	"fastintersect/internal/engine"
	"fastintersect/internal/plan"
	"fastintersect/internal/workload"
)

// denseQueries conjoins the workload's head terms — the lists dense enough
// to store as word-parallel bitmaps — in pairs and triples. On this stream
// the cost model should select the bitseg kernel (the heuristic baseline
// never does), making it the measurement workload for the bitmap tier's
// end-to-end speedup.
func denseQueries() []string {
	var qs []string
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			qs = append(qs, workload.TermName(i)+" AND "+workload.TermName(j))
		}
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, fmt.Sprintf("%s AND %s AND %s",
			workload.TermName(i), workload.TermName(i+1), workload.TermName(i+2)))
	}
	return qs
}

func init() {
	register(Experiment{
		ID:    "plan-quality",
		Title: "Cost-based physical plans vs the df-ordered baseline and the worst ordering",
		Paper: "§4 cost-model motivation; engine tier (no paper artifact); seeds BENCH_plan.json",
		Run:   runPlanBench,
	})
}

// planPolicies are the three planner configurations the experiment
// compares: the cost-based default, the pre-planner df-ordered baseline
// (ascending document frequency, the fixed heuristic kernel: merge), and
// the adversarial descending ordering that bounds the value of ordering at
// all.
var planPolicies = []struct {
	Name   string
	Policy plan.Policy
}{
	{"cost", plan.Policy{Order: plan.OrderCost, Kernels: plan.KernelsCost}},
	{"df", plan.Policy{Order: plan.OrderDF, Kernels: plan.KernelsHeuristic}},
	{"worst", plan.Policy{Order: plan.OrderWorst, Kernels: plan.KernelsHeuristic}},
}

// PlanScenario is one (workload shape, policy) measurement.
type PlanScenario struct {
	Workload    string  `json:"workload"`
	Policy      string  `json:"policy"`
	Queries     int     `json:"queries"`
	NsPerOp     int64   `json:"ns_per_op"`
	QPS         float64 `json:"qps"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// BitsegPlans counts sampled queries whose physical plan selected the
	// word-parallel bitmap kernel — the evidence that a bitseg speedup came
	// from the cost model choosing it, not from forcing it (the heuristic
	// policy must always report 0 here).
	BitsegPlans int `json:"bitseg_plans"`
}

// PlanReport is the machine-readable result of the plan-quality experiment:
// the BENCH_plan.json artifact emitted by fsibench -plan-json. The headline
// comparison is cost vs df on each workload — cost-based planning must not
// lose to the baseline it replaced.
type PlanReport struct {
	Schema    string         `json:"schema"`
	Scale     string         `json:"scale"`
	Seed      uint64         `json:"seed"`
	Scenarios []PlanScenario `json:"scenarios"`
}

// PlanBench measures end-to-end Engine.Query throughput under each planner
// policy, per workload shape, with the result cache disabled so every
// operation pays the full parse → plan → execute pipeline. Every policy's
// engine indexes the same corpus and replays the same query streams, so
// the deltas isolate the planner.
func PlanBench(cfg Config) *PlanReport {
	rc := workload.SmallRealConfig()
	rc.NumDocs, rc.NumTerms, rc.NumQueries = 100_000, 2_000, 128
	if cfg.Full() {
		rc.NumDocs, rc.NumTerms, rc.NumQueries = 1_000_000, 20_000, 1_000
	}
	rc.Seed = cfg.Seed
	real := workload.NewReal(rc)

	workloads := []struct {
		Name    string
		SC      workload.StreamConfig
		Queries []string // overrides the stream when non-nil
	}{
		{"and-heavy", workload.StreamConfig{OrFrac: 0, NotFrac: 0, Seed: cfg.Seed + 1}, nil},
		{"dense-and", workload.StreamConfig{}, denseQueries()},
		{"mixed", workload.StreamConfig{OrFrac: 0.30, NotFrac: 0.10, Seed: cfg.Seed + 2}, nil},
	}
	rep := &PlanReport{
		Schema: "fsibench/plan/v2",
		Scale:  cfg.Scale,
		Seed:   cfg.Seed,
	}
	for _, pol := range planPolicies {
		e := engine.New(engine.Config{Shards: 2, PlanPolicy: pol.Policy})
		b := e.NewBuilder()
		for t, docs := range real.Postings {
			if err := b.AddPosting(workload.TermName(t), docs); err != nil {
				panic(fmt.Sprintf("harness: plan bench build: %v", err))
			}
		}
		if err := e.Install(b); err != nil {
			panic(fmt.Sprintf("harness: plan bench install: %v", err))
		}
		for _, wl := range workloads {
			queries := wl.Queries
			if queries == nil {
				queries = real.QueryStream(2*rc.NumQueries, wl.SC)
			}
			for _, q := range queries[:min(64, len(queries))] { // warm pools and structure caches
				if _, err := e.Query(q); err != nil {
					panic(fmt.Sprintf("harness: plan bench warm-up query %q: %v", q, err))
				}
			}
			reps := cfg.Reps
			if reps < 1 {
				reps = 1
			}
			var r testing.BenchmarkResult
			var ns int64
			for rep := 0; rep < reps; rep++ { // min across reps: scheduler noise only ever adds time
				rr := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := e.Query(queries[i%len(queries)]); err != nil {
							b.Fatal(err)
						}
					}
				})
				if rep == 0 || rr.NsPerOp() < ns {
					r, ns = rr, rr.NsPerOp()
				}
			}
			qps := 0.0
			if ns > 0 {
				qps = 1e9 / float64(ns)
			}
			bitsegPlans := 0
			for _, q := range queries[:min(32, len(queries))] {
				_, expl, err := e.Explain(q)
				if err != nil {
					panic(fmt.Sprintf("harness: plan bench explain %q: %v", q, err))
				}
				if strings.Contains(expl, "BitsegAnd") {
					bitsegPlans++
				}
			}
			rep.Scenarios = append(rep.Scenarios, PlanScenario{
				Workload:    wl.Name,
				Policy:      pol.Name,
				Queries:     len(queries),
				NsPerOp:     ns,
				QPS:         qps,
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				BitsegPlans: bitsegPlans,
			})
		}
	}
	return rep
}

func runPlanBench(cfg Config) []*Table {
	rep := PlanBench(cfg)
	byKey := map[string]map[string]PlanScenario{}
	for _, s := range rep.Scenarios {
		if byKey[s.Workload] == nil {
			byKey[s.Workload] = map[string]PlanScenario{}
		}
		byKey[s.Workload][s.Policy] = s
	}
	t := &Table{
		ID:      "plan-quality",
		Title:   "Engine.Query ns/op per planner policy (cache disabled)",
		Columns: []string{"workload", "cost ns/op", "df ns/op", "worst ns/op", "cost/df", "bitseg plans"},
		Notes: []string{
			"cost = calibrated cost model (order + kernels); df = pre-planner baseline (ascending df, heuristic kernels); worst = descending df",
			"cost/df <= 1.0 means cost-based planning is no slower than the baseline it replaced",
			"bitseg plans = sampled queries whose cost-based plan selected the word-parallel bitmap kernel (the baseline never does)",
		},
	}
	for _, s := range rep.Scenarios {
		if s.Policy != "cost" {
			continue
		}
		row := byKey[s.Workload]
		ratio := float64(row["cost"].NsPerOp) / float64(row["df"].NsPerOp)
		t.AddRow(s.Workload,
			fmt.Sprintf("%d", row["cost"].NsPerOp),
			fmt.Sprintf("%d", row["df"].NsPerOp),
			fmt.Sprintf("%d", row["worst"].NsPerOp),
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%d", row["cost"].BitsegPlans))
	}
	return []*Table{t}
}
