package engine

import (
	"strconv"
	"sync"
	"time"

	"fastintersect/internal/obs"
	"fastintersect/internal/plan"
)

// engineMetrics is the engine's observability surface: sharded counters for
// the operation mix, log₂ histograms for end-to-end and per-stage latency,
// and per-kernel run counters fed by sampled traces. Every engine
// owns a private obs.Registry (exposed via Engine.Metrics), so two engines
// in one process never mix series and tests need no global reset.
//
// The counters are always live — they are one sharded atomic add each.
// The histograms and the trace sampler are disabled by Config.NoMetrics,
// which is what the CI overhead guard benchmarks against.
type engineMetrics struct {
	reg     *obs.Registry
	enabled bool
	sampler *obs.Sampler

	queries         *obs.Counter
	queryErrors     *obs.Counter
	batches         *obs.Counter
	mutations       *obs.Counter
	compactions     *obs.Counter
	rebuilds        *obs.Counter
	segmentFreezes  *obs.Counter
	segmentMerges   *obs.Counter
	compactionBytes *obs.Counter
	planHits        *obs.Counter
	planMisses      *obs.Counter

	latency *obs.Histogram
	stages  [obs.NumStages]*obs.Histogram

	kernelExecs [plan.KernelCount]*obs.Counter
	kernelRows  [plan.KernelCount]*obs.Counter
	kernelNs    [plan.KernelCount]*obs.Counter
}

// defaultTraceSample traces 1 in 64 queries: frequent enough that the
// stage/kernel series move within seconds under load, rare enough that the
// tracing cost disappears into the <2% overhead budget.
const defaultTraceSample = 64

func newEngineMetrics(e *Engine, cfg Config) *engineMetrics {
	sample := cfg.TraceSample
	if sample <= 0 {
		sample = defaultTraceSample
	}
	r := obs.NewRegistry()
	m := &engineMetrics{
		reg:         r,
		enabled:     !cfg.NoMetrics,
		sampler:     obs.NewSampler(sample),
		queries:     r.Counter("fsi_queries_total", "Queries accepted (including parse failures and cache hits)."),
		queryErrors: r.Counter("fsi_query_errors_total", "Queries that returned an error."),
		batches:     r.Counter("fsi_batches_total", "QueryBatch calls."),
		mutations:   r.Counter("fsi_mutations_total", "Effective AddDocument/DeleteDocument mutations."),
		compactions: r.Counter("fsi_compactions_total", "Completed shard compactions."),
		rebuilds:    r.Counter("fsi_rebuilds_total", "Index installs."),
		segmentFreezes: r.Counter("fsi_segment_freezes_total",
			"Active segments frozen into the tier (map move, no postings copied)."),
		segmentMerges: r.Counter("fsi_segment_merges_total",
			"Size-tiered merges of frozen segments."),
		compactionBytes: r.Counter("fsi_compaction_bytes_total",
			"Posting bytes written by segment merges and full compactions (the write-amplification numerator)."),
		planHits:   r.Counter("fsi_plan_cache_hits_total", "Queries served a memoized physical plan."),
		planMisses: r.Counter("fsi_plan_cache_misses_total", "Queries that built a plan (cold key or stale stats epoch)."),
		latency:    r.Histogram("fsi_query_latency_seconds", "End-to-end Query latency."),
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		m.stages[s] = r.Histogram(`fsi_query_stage_seconds{stage="`+s.String()+`"}`,
			"Per-stage latency of sampled queries.")
	}
	for k := 1; k < plan.KernelCount; k++ { // skip KernelNone
		name := plan.Kernel(k).String()
		m.kernelExecs[k] = r.Counter(`fsi_kernel_executions_total{kernel="`+name+`"}`,
			"Intersection-kernel runs in sampled queries: one per pair of a pairwise chain, one per BitsegAnd.")
		m.kernelRows[k] = r.Counter(`fsi_kernel_rows_total{kernel="`+name+`"}`,
			"Output rows of the kernel's runs in sampled queries.")
		m.kernelNs[k] = r.Counter(`fsi_kernel_ns_total{kernel="`+name+`"}`,
			"Wall nanoseconds inside the kernel's runs in sampled queries (operand fetch excluded; a BitsegAnd run includes attaching its lists' bitseg forms on first use).")
	}
	r.CounterFunc("fsi_cache_hits_total", "Result-cache hits.",
		func() uint64 { return e.cache.stats().Hits })
	r.CounterFunc("fsi_cache_misses_total", "Result-cache misses (including stale drops).",
		func() uint64 { return e.cache.stats().Misses })
	r.CounterFunc("fsi_cache_evictions_total", "Result-cache capacity evictions.",
		func() uint64 { return e.cache.stats().Evictions })
	r.CounterFunc("fsi_cache_stale_total", "Result-cache probes invalidated by a generation mismatch.",
		func() uint64 { return e.cache.stats().Stale })
	r.CounterFunc("fsi_cache_dropped_puts_total", "Result-cache inserts discarded because their generation was superseded.",
		func() uint64 { return e.cache.stats().DroppedPuts })
	r.GaugeFunc("fsi_cache_entries", "Result-cache resident entries.",
		func() float64 { return float64(e.cache.stats().Entries) })
	r.GaugeFunc("fsi_index_generation", "Index generation (bumped by every install and effective mutation).",
		func() float64 { return float64(e.gen.Load()) })
	r.GaugeFunc("fsi_stats_epoch", "Statistics epoch (bumped by installs and snapshot loads; invalidates the plan cache).",
		func() float64 { return float64(e.statsEpoch.Load()) })
	r.GaugeFunc("fsi_plan_cache_entries", "Plan-cache resident entries.",
		func() float64 { return float64(e.plans.entries()) })
	shardCount := cfg.Shards
	if shardCount <= 0 {
		shardCount = 1
	}
	for i := 0; i < shardCount; i++ {
		i := i
		r.GaugeFunc(`fsi_segments{shard="`+strconv.Itoa(i)+`"}`,
			"Frozen segments in the shard's tier (the installed one included).",
			func() float64 {
				shards := e.snapshot()
				if i >= len(shards) {
					return 0
				}
				s := shards[i]
				s.mu.RLock()
				n := len(s.segs)
				s.mu.RUnlock()
				return float64(n)
			})
	}
	return m
}

// sampleTrace decides whether this query gets a stage trace.
func (m *engineMetrics) sampleTrace() bool {
	return m.enabled && m.sampler.Sample()
}

// recordKernels folds one traced query's kernel runs into the per-kernel
// counters.
func (m *engineMetrics) recordKernels(agg *traceRec) {
	if !m.enabled {
		return
	}
	for k := range agg.kernels {
		if a := &agg.kernels[k]; a.execs > 0 {
			m.kernelExecs[k].Add(uint64(a.execs))
			m.kernelRows[k].Add(uint64(a.rows))
			m.kernelNs[k].Add(uint64(a.ns))
		}
	}
}

// opAcc accumulates executions during a traced query: their count, output
// rows and wall time, summed over every segment of every shard.
type opAcc struct {
	execs int64
	rows  int64
	ns    int64
	// pairHits counts the segments that served a conjunction's head pair
	// from the pair cache.
	pairHits int64
}

// traceRec is the recording arena of a traced query: one opAcc per plan
// operator (indexed parallel to plan.Ops) and one per kernel, each run of
// a pair or BitsegAnd kernel counted under the kernel that ran. It rides
// on execCtx.rec — evaluation records into it only when it is non-nil, so
// untraced queries pay a single nil check per operator and kernel run.
// Pooled, like every other per-query structure.
type traceRec struct {
	ops     []opAcc
	kernels [plan.KernelCount]opAcc
}

// kernelRun records one run of kernel k that started at start and wrote
// rows output rows.
func (r *traceRec) kernelRun(k plan.Kernel, start time.Time, rows int) {
	a := &r.kernels[k]
	a.execs++
	a.rows += int64(rows)
	a.ns += time.Since(start).Nanoseconds()
}

var traceRecPool = sync.Pool{New: func() any { return new(traceRec) }}

// getTraceRec returns a zeroed recording arena sized for n plan operators.
func getTraceRec(n int) *traceRec {
	r := traceRecPool.Get().(*traceRec)
	r.kernels = [plan.KernelCount]opAcc{}
	if cap(r.ops) < n {
		r.ops = make([]opAcc, n)
	} else {
		r.ops = r.ops[:n]
		for i := range r.ops {
			r.ops[i] = opAcc{}
		}
	}
	return r
}

// putTraceRec recycles r. Nil-safe.
func putTraceRec(r *traceRec) {
	if r != nil {
		traceRecPool.Put(r)
	}
}
