package engine

import (
	"runtime"
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

// benchEngines are the engines the benchmarks and the overhead guard
// share, one per configuration per process: a benchmark builds none of its
// own, so none runs beside another's garbage or pays a 200k-document
// build between rounds. Benchmarks that share an engine share its warm pair
// cache too.
var benchEngines struct {
	sync.Mutex
	m map[benchKey]*Engine
}

// benchKey is one bench engine's configuration, Workers resolved.
type benchKey struct {
	cfg       Config
	zeroPairs bool // a zero pair-cache budget: no head pair is ever cached
}

// benchEngine returns the shared bench corpus built into an engine with
// cfg, and with zeroPairs a zero pair-cache budget. Workers 0 resolves to
// the current GOMAXPROCS, as in New, so each -cpu value gets an engine
// whose worker bound matches it.
func benchEngine(tb testing.TB, cfg Config, zeroPairs bool) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	k := benchKey{cfg, zeroPairs}
	benchEngines.Lock()
	defer benchEngines.Unlock()
	if e := benchEngines.m[k]; e != nil {
		return e
	}
	real, _ := benchWorkload(tb)
	e := tunePairs(New(cfg), pairMinLen, zeroPairs)
	b := e.NewBuilder()
	for t, docs := range real.Postings {
		if err := b.AddPosting(workload.TermName(t), docs); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		tb.Fatal(err)
	}
	if benchEngines.m == nil {
		benchEngines.m = map[benchKey]*Engine{}
	}
	benchEngines.m[k] = e
	runtime.GC() // the build's garbage is not the timed loop's to collect
	return e
}

// BenchmarkQueryMixed measures the steady-state serving path on the mixed
// AND/OR workload with the result cache disabled, so every iteration pays
// the full parse → plan → per-shard evaluation → merge pipeline. B/op and
// allocs/op here are the numbers the ExecContext pooling is accountable
// for; TestQueryAllocs pins them as a regression bound. The stream repeats
// every 256 queries, so "pair-cache" measures head pairs served from the
// pair cache, and "zero-budget" the path that caches none.
func BenchmarkQueryMixed(b *testing.B) {
	for _, bc := range []struct {
		name      string
		zeroPairs bool
	}{{"pair-cache", false}, {"zero-budget", true}} {
		b.Run(bc.name, func(b *testing.B) {
			e := benchEngine(b, Config{Shards: 2}, bc.zeroPairs)
			_, queries := benchWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryBatch submits BenchmarkQueryMixed's stream through
// QueryBatch in chunks of 64 and reports ns per query: a chunk's duplicate
// canonical forms are planned and executed once, and its misses share one
// execution context under one worker slot.
func BenchmarkQueryBatch(b *testing.B) {
	const chunk = 64 // divides len(queries), so a chunk never wraps
	e := benchEngine(b, Config{Shards: 2}, false)
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
// queries contend for the engine; BenchmarkQueryMixed/pair-cache is its
// one-goroutine floor.
func BenchmarkQueryMixedParallel(b *testing.B) {
	e := benchEngine(b, Config{Shards: 2}, false)
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
