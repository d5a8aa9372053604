package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"fastintersect/internal/workload"
)

// The mixed AND/OR workload shared by the serving benchmarks and the
// overhead guard: a scaled-down Real corpus queried with the default
// operator mix plus a heavier OR fraction, so both the conjunctive
// push-down and the k-way union paths are exercised. The engine's
// end-to-end throughput, latency and allocations are measured by
// perfbench's search-cold and search-hot workloads.
var benchState struct {
	once    sync.Once
	real    *workload.Real
	queries []string
}

func benchWorkload(tb testing.TB) (*workload.Real, []string) {
	benchState.once.Do(func() {
		cfg := workload.SmallRealConfig()
		cfg.NumDocs = 200_000
		cfg.NumTerms = 2_000
		cfg.NumQueries = 128
		benchState.real = workload.NewReal(cfg)
		sc := workload.DefaultStreamConfig()
		sc.OrFrac = 0.30
		sc.NotFrac = 0.10
		benchState.queries = benchState.real.QueryStream(256, sc)
	})
	if benchState.real == nil {
		tb.Fatal("bench workload failed to build")
	}
	return benchState.real, benchState.queries
}

// buildBenchEngineCfg builds the shared bench corpus into an engine with an
// arbitrary configuration (the overhead guard compares instrumented vs.
// NoMetrics on otherwise identical engines).
func buildBenchEngineCfg(tb testing.TB, cfg Config) *Engine {
	real, _ := benchWorkload(tb)
	e := New(cfg)
	b := e.NewBuilder()
	for t, docs := range real.Postings {
		if err := b.AddPosting(workload.TermName(t), docs); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkQueryMixed measures the steady-state serving path on the mixed
// AND/OR workload with the result cache disabled, so every iteration pays
// the full parse → plan → per-shard evaluation → merge pipeline. B/op and
// allocs/op here are the numbers the ExecContext pooling is accountable
// for; TestQueryAllocs pins them as a regression bound.
func BenchmarkQueryMixed(b *testing.B) {
	e := buildBenchEngineCfg(b, Config{Shards: 2})
	_, queries := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBatch submits BenchmarkQueryMixed's stream through
// QueryBatch in chunks of 64 and reports ns per query: a chunk's duplicate
// canonical forms are planned and executed once, and its misses share one
// execution context under one worker slot.
func BenchmarkQueryBatch(b *testing.B) {
	const chunk = 64 // divides len(queries), so a chunk never wraps
	e := buildBenchEngineCfg(b, Config{Shards: 2})
	_, queries := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += chunk {
		off := i % len(queries)
		for _, r := range e.QueryBatch(queries[off : off+min(chunk, b.N-i)]) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkQueryMixedParallel runs BenchmarkQueryMixed's stream from
// GOMAXPROCS goroutines at once (b.RunParallel), so -cpu 1,2,4 sets how many
// queries contend for the engine; BenchmarkQueryMixed is its one-goroutine
// floor.
func BenchmarkQueryMixedParallel(b *testing.B) {
	e := buildBenchEngineCfg(b, Config{Shards: 2})
	_, queries := benchWorkload(b)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := queries[next.Add(1)%uint64(len(queries))]
			if _, err := e.Query(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
