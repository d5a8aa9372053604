package engine

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"fastintersect/internal/obs"
	"fastintersect/internal/plan"
	"fastintersect/internal/race"
)

// TestExplainAnalyze pins the estimate-versus-execution surface: the
// rendered plan must carry measured rows and time per operator next to the
// estimates, under both shard shapes.
func TestExplainAnalyze(t *testing.T) {
	const numDocs = 20_000
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("raw-%dshard", shards), func(t *testing.T) {
			e := buildTestEngine(t, Config{Shards: shards, CacheSize: 64}, numDocs)
			res, expl, err := e.ExplainAnalyze("(m2 AND m3) OR m11 AND NOT m13")
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				"est_rows=", "act_rows=", "act_time=", "est_cost=", "stages:", "shard 0:",
			} {
				if !strings.Contains(expl, want) {
					t.Errorf("analyze output missing %q:\n%s", want, expl)
				}
			}
			if strings.Contains(expl, "(not executed)") {
				t.Errorf("fully-executed plan rendered unexecuted operators:\n%s", expl)
			}
			// The engine has no deltas or tombstones here, so the root's
			// measured rows (base segments, summed over shards) must equal
			// the final result exactly.
			rootWant := fmt.Sprintf("act_rows=%d", len(res.Docs))
			if !strings.Contains(expl, rootWant) {
				t.Errorf("no operator reports the result cardinality %s:\n%s", rootWant, expl)
			}
			if shards > 1 && !strings.Contains(expl, fmt.Sprintf("shard %d:", shards-1)) {
				t.Errorf("missing per-shard span for shard %d:\n%s", shards-1, expl)
			}
		})
	}
}

// TestExplainAnalyzeBypassesCache: analyze must re-execute even when the
// result is cached (otherwise every operator would read "(not executed)"),
// and its result must still land in the cache.
func TestExplainAnalyzeBypassesCache(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 64}, 10_000)
	q := "m2 AND m5"
	if _, err := e.Query(q); err != nil { // warm the cache
		t.Fatal(err)
	}
	res, expl, err := e.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("analyze served the cached result instead of executing")
	}
	if strings.Contains(expl, "(not executed)") {
		t.Fatalf("analyze did not execute the plan:\n%s", expl)
	}
	res2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("query after analyze should hit the cache")
	}
}

// TestTraceSampling checks the 1-in-N gate: stage histograms accumulate
// only sampled queries, and NoMetrics turns them off entirely.
func TestTraceSampling(t *testing.T) {
	const numDocs, queries = 5_000, 64
	e := buildTestEngine(t, Config{Shards: 2, TraceSample: 4}, numDocs)
	for i := 0; i < queries; i++ {
		if _, err := e.Query("m2 AND m3"); err != nil {
			t.Fatal(err)
		}
	}
	got := e.met.stages[obs.StageParse].Snapshot().Count
	if got != queries/4 {
		t.Errorf("stage histogram holds %d samples, want %d (1 in 4 of %d)", got, queries/4, queries)
	}
	if lat := e.met.latency.Snapshot().Count; lat != queries {
		t.Errorf("latency histogram holds %d, want every query (%d)", lat, queries)
	}

	off := buildTestEngine(t, Config{Shards: 2, NoMetrics: true}, numDocs)
	for i := 0; i < queries; i++ {
		if _, err := off.Query("m2 AND m3"); err != nil {
			t.Fatal(err)
		}
	}
	if n := off.met.latency.Snapshot().Count; n != 0 {
		t.Errorf("NoMetrics engine observed %d latencies, want 0", n)
	}
	if n := off.met.stages[obs.StageParse].Snapshot().Count; n != 0 {
		t.Errorf("NoMetrics engine sampled %d traces, want 0", n)
	}
	// Counters stay on regardless: they are the Stats() source of truth.
	if st := off.Stats(); st.Queries != queries {
		t.Errorf("NoMetrics engine counted %d queries, want %d", st.Queries, queries)
	}
}

// TestTraceCountsEveryKernelRun pins the per-kernel counters to the
// kernel runs themselves. In "b a c" the first pair (b, a) is balanced, so
// it runs BitProbe; its result is 80 times smaller than c, so the second
// pair runs Gallop. Over a 2²⁴-docID span the lists are too sparse for
// BitsegAnd. Each shard holds one segment, so every traced query must
// record one BitProbe run and one Gallop run per shard, each with its own
// output rows.
func TestTraceCountsEveryKernelRun(t *testing.T) {
	const shards, queries, span = 2, 50, 1 << 24
	e := New(Config{Shards: shards, TraceSample: 1})
	b := e.NewBuilder()
	for term, stride := range map[string]int{"a": 8192, "b": 10240, "c": 512} {
		var docs []uint32
		for d := 0; d < span; d += stride {
			docs = append(docs, uint32(d))
		}
		if err := b.AddPosting(term, docs); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	// a ∩ b holds the multiples of lcm(8192, 10240) = 40960, and c keeps
	// every one of them.
	const rows = (span + 40960 - 1) / 40960
	for i := 0; i < queries; i++ {
		res, err := e.Query("b a c")
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != rows {
			t.Fatalf("query returned %d docs, want %d", res.Count, rows)
		}
	}
	want := map[string]uint64{"BitProbe": shards * queries, "Gallop": shards * queries}
	if got := e.Stats().KernelExecs; !maps.Equal(got, want) {
		t.Fatalf("kernel runs %v, want %v: one BitProbe and one Gallop per shard and query", got, want)
	}
	for _, k := range []plan.Kernel{plan.KernelBitProbe, plan.KernelGallop} {
		if got := e.met.kernelRows[k].Value(); got != rows*queries {
			t.Errorf("%v rows %d, want %d", k, got, rows*queries)
		}
		if e.met.kernelNs[k].Value() == 0 {
			t.Errorf("%v recorded no time", k)
		}
	}
}

// TestEngineMetricsEndToEnd scrapes the per-engine registry and checks that
// every series is present, moves with traffic, and that the latency
// histogram agrees with the caller's own timings.
func TestEngineMetricsEndToEnd(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 8, TraceSample: 1}, 5_000)
	var lat []time.Duration // the caller's timing of every query
	for i := 0; i < 9; i++ {
		q := "m2 AND m3"
		if i == 8 {
			q = "zzz OR"
		}
		start := time.Now()
		_, err := e.Query(q)
		lat = append(lat, time.Since(start))
		if (err != nil) != (i == 8) {
			t.Fatalf("Query(%q) error = %v", q, err)
		}
	}
	if err := e.AddDocument(10_001, []string{"m2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteDocument(10_001); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"fsi_queries_total 9",
		"fsi_query_errors_total 1",
		"fsi_mutations_total 2",
		"fsi_rebuilds_total 1",
		"fsi_cache_hits_total",
		"fsi_cache_dropped_puts_total",
		"fsi_index_generation 3", // install + 2 mutations
		"fsi_query_latency_seconds_count 9",
		`fsi_query_stage_seconds_bucket{stage="parse",le=`,
		`fsi_kernel_executions_total{kernel=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q:\n%s", want, text)
		}
	}
	// TraceSample=1 traces everything; the AND ran a real kernel each time,
	// so some kernel counter must be non-zero.
	hot := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "fsi_kernel_executions_total{") && !strings.HasSuffix(line, " 0") {
			hot = true
		}
	}
	if !hot {
		t.Errorf("no kernel execution recorded with TraceSample=1:\n%s", text)
	}
	// The latency histogram read back from the scrape must agree with the
	// caller's timings of the same queries within the log₂ buckets'
	// resolution: a scraped percentile is its bucket's upper bound, up to 2×
	// the true value, and a 4× band each side absorbs rank granularity and
	// scheduler noise without letting a broken bucket mapping pass.
	t.Run("latency-quantiles", func(t *testing.T) {
		slices.Sort(lat)
		for _, q := range []float64{0.50, 0.99} {
			rank := min(max(int(q*float64(len(lat))+0.5), 1), len(lat))
			measured := lat[rank-1].Seconds()
			scraped := scrapedRank(text, "fsi_query_latency_seconds", rank)
			if r := scraped / measured; !(r >= 0.25 && r <= 4) {
				t.Errorf("p%.0f: scraped %.2gs vs measured %.2gs (ratio %.2f), want within bucket resolution",
					100*q, scraped, measured, r)
			}
		}
	})
}

// scrapedRank returns the upper bound, in seconds, of the histogram bucket
// holding the rank-th smallest observation in a Prometheus scrape of family.
func scrapedRank(text, family string, rank int) float64 {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family+`_bucket{le="`)
		if !ok {
			continue
		}
		le, count, _ := strings.Cut(rest, `"} `)
		if n, _ := strconv.Atoi(count); n >= rank {
			v, _ := strconv.ParseFloat(le, 64)
			return v
		}
	}
	return 0
}

// TestQueryAllocsTraced extends the allocation guard to the instrumented
// path: with tracing sampled OFF the bounds of TestQueryAllocs must hold
// unchanged (the default configuration differs only by a nil check per
// operator), and with every query traced the pooled trace machinery may
// add only a small constant.
func TestQueryAllocsTraced(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; the allocation bounds cannot hold")
	}
	const numDocs = 20_000
	cases := []struct {
		name   string
		cfg    Config
		shards int
		max    float64
	}{
		// TraceSample beyond any loop below: tracing never fires, bounds
		// match TestQueryAllocs exactly.
		{"sampled-off-1shard", Config{Shards: 1, TraceSample: 1 << 30}, 1, 30},
		{"sampled-off-4shard", Config{Shards: 4, TraceSample: 1 << 30}, 4, 30},
		// Every query traced: trace, stage stamps and per-op recording all
		// ride pooled arenas, and every shard records into the query's one
		// arena, so 4 shards fit the 1-shard bound.
		{"traced-1shard", Config{Shards: 1, TraceSample: 1}, 1, 40},
		{"traced-4shard", Config{Shards: 4, TraceSample: 1}, 4, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := buildTestEngine(t, tc.cfg, numDocs)
			const q = "m2 AND m3"
			for i := 0; i < 5; i++ { // warm pools
				if _, err := e.Query(q); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			n := testing.AllocsPerRun(50, func() {
				_, err = e.Query(q)
			})
			if err != nil {
				t.Fatal(err)
			}
			if n > tc.max {
				t.Fatalf("Query(%q) allocates %.1f times per op, want ≤ %v", q, n, tc.max)
			}
		})
	}
}

// TestMetricsOverheadGuard is the CI overhead gate: the default
// instrumented configuration must stay within 5% of NoMetrics on the mixed
// workload. Both engines are built once and timed in alternating pairs of
// one pass over BenchmarkQueryMixed's stream each (about 10 ms a side), the
// side that runs first alternating too, so host drift and steal land on
// both sides alike; the gate reads the median of the per-pair ratios.
// Gated behind FSI_OVERHEAD_GUARD because wall-clock comparisons are too
// noisy for the ordinary -race matrix; CI runs it on a dedicated step.
func TestMetricsOverheadGuard(t *testing.T) {
	if os.Getenv("FSI_OVERHEAD_GUARD") == "" {
		t.Skip("set FSI_OVERHEAD_GUARD=1 to run the instrumentation overhead gate")
	}
	base := benchEngine(t, Config{Shards: 2, NoMetrics: true}, false)
	inst := benchEngine(t, Config{Shards: 2}, false) // default: metrics on, 1-in-64 tracing
	_, queries := benchWorkload(t)
	pass := func(e *Engine) time.Duration {
		start := time.Now()
		for _, q := range queries {
			if _, err := e.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	pass(base) // warm both: pools, plan caches, lazily attached bitseg forms
	pass(inst)
	const pairs = 301
	ratios := make([]float64, pairs)
	var baseSum, instSum time.Duration
	for p := range pairs {
		var b, i time.Duration
		if p%2 == 0 {
			b, i = pass(base), pass(inst)
		} else {
			i, b = pass(inst), pass(base)
		}
		ratios[p] = float64(i) / float64(b)
		baseSum += b
		instSum += i
	}
	slices.Sort(ratios)
	ratio := ratios[pairs/2]
	ops := time.Duration(pairs * len(queries))
	t.Logf("%d pairs: uninstrumented %v/op, instrumented %v/op; per-pair ratio p10 %.3f, median %.3f, p90 %.3f",
		pairs, baseSum/ops, instSum/ops, ratios[pairs/10], ratio, ratios[pairs*9/10])
	if ratio > 1.05 {
		t.Fatalf("instrumentation overhead %.1f%% exceeds the 5%% budget", (ratio-1)*100)
	}
}
