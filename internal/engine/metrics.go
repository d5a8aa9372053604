package engine

import (
	"strconv"
	"sync"

	"fastintersect/internal/obs"
	"fastintersect/internal/plan"
)

// engineMetrics is the engine's observability surface: sharded counters for
// the operation mix, log₂ histograms for end-to-end and per-stage latency,
// and per-kernel execution counters fed by sampled traces. Every engine
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
			"Conjunction-kernel executions observed in sampled queries.")
		m.kernelRows[k] = r.Counter(`fsi_kernel_rows_total{kernel="`+name+`"}`,
			"Output rows produced by each kernel in sampled queries.")
		m.kernelNs[k] = r.Counter(`fsi_kernel_ns_total{kernel="`+name+`"}`,
			"Wall nanoseconds spent in each kernel in sampled queries (inclusive of operand fetch).")
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
	if e.fb != nil {
		fb := e.fb
		r.GaugeFunc("fsi_plan_est_rows_error",
			"Relative cardinality-estimate error of the last feedback window (Σ|act−est|/Σact).",
			fb.RowsError)
		r.CounterFunc("fsi_plan_refits_total", "Feedback re-fit passes run.", fb.Refits)
		r.CounterFunc("fsi_plan_feedback_observations_total",
			"Sampled per-operator actuals harvested into the feedback store.", fb.Observations)
		r.GaugeFunc("fsi_plan_feedback_epoch",
			"Published correction snapshots (each re-prices every cached plan).",
			func() float64 { return float64(fb.Epoch()) })
		for k := 1; k < plan.KernelCount; k++ {
			k := plan.Kernel(k)
			r.GaugeFunc(`fsi_plan_kernel_correction{kernel="`+k.String()+`"}`,
				"Live multiplicative cost correction for the kernel (1 = the cost table trusted as-is).",
				func() float64 { return fb.Correction(k) })
		}
	}
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

// recordKernels folds one traced query's per-operator actuals into the
// per-kernel counters: only conjunctions that ran a real multi-operand
// kernel contribute, and their time is inclusive of operand fetch (that is
// what the kernel tier is accountable for end to end).
func (m *engineMetrics) recordKernels(pp *plan.Plan, agg *traceRec) {
	if !m.enabled {
		return
	}
	for i := range pp.Ops {
		op := &pp.Ops[i]
		if op.Kind != plan.OpAnd || op.Kernel == plan.KernelNone {
			continue
		}
		a := &agg.ops[i]
		if a.execs == 0 {
			continue
		}
		// Prefer the kernel the shards actually ran; the plan-level pick is
		// the fallback for paths that don't re-price (empty operands and
		// single-operand degenerations).
		k := a.kernel
		if k == plan.KernelNone {
			k = op.Kernel
		}
		m.kernelExecs[k].Add(uint64(a.execs))
		m.kernelRows[k].Add(uint64(a.rows))
		m.kernelNs[k].Add(uint64(a.ns))
	}
}

// harvestFeedback folds one traced query's per-operator actuals into the
// adaptive-planning store — the same walk as recordKernels, but pairing
// each actual with the estimate the cost model made for it, so the re-fit
// can compare what was promised against what execution delivered.
//
// The pairing is execution-level when available: evalAndOp re-prices every
// conjunction on the shard's actual sizes and spans, and records both the
// kernel that ran and the corrected cost that pricing promised (summed
// across shards, like the actual ns — the two sides are commensurable).
// The logical plan's Op.Kernel/Op.Cost, priced at the universe span, is
// only the fallback for paths that never re-price; attributing a merge's
// nanoseconds to whichever kernel looked cheap at plan time would teach
// the loop to correct a kernel that never ran.
func harvestFeedback(fb *plan.Feedback, pp *plan.Plan, agg *traceRec) {
	for i := range pp.Ops {
		op := &pp.Ops[i]
		if op.Kind != plan.OpAnd || op.Kernel == plan.KernelNone {
			continue
		}
		a := &agg.ops[i]
		if a.execs == 0 {
			continue
		}
		k, est := a.kernel, a.estNs
		if k == plan.KernelNone {
			k, est = op.Kernel, op.Cost
		}
		fb.Observe(k, op.Rows, est, a.execs, a.rows, a.ns)
	}
}

// opAcc accumulates one plan operator's executions during a traced query.
// kernel and estNs are the execution-level truth for conjunctions: the
// kernel the segment's re-pricing actually ran (the logical plan's pick can
// differ — it prices every operand at the universe span) and the corrected
// cost that re-pricing promised, summed across segments and shards like
// ns. When segments ran different kernels for one operator, the run with
// the largest estimate (kernelEst) names it — usually the largest segment,
// whose lists dominate the work.
type opAcc struct {
	execs     int64
	rows      int64
	ns        int64
	kernel    plan.Kernel
	kernelEst float64
	estNs     float64
}

// ranKernel records one kernel run of the operator priced at est.
func (a *opAcc) ranKernel(k plan.Kernel, est float64) {
	if a.kernel == plan.KernelNone || est > a.kernelEst {
		a.kernel, a.kernelEst = k, est
	}
	a.estNs += est
}

// traceRec is the recording arena of a traced query: one opAcc per plan
// operator (indexed parallel to plan.Ops), accumulated over every segment
// of every shard. It rides on execCtx.rec — evalOp records into it only
// when it is non-nil, so untraced queries pay a single nil check per
// operator. Pooled, like every other per-query structure.
type traceRec struct {
	ops []opAcc
}

var traceRecPool = sync.Pool{New: func() any { return new(traceRec) }}

// getTraceRec returns a zeroed recording arena sized for n plan operators.
func getTraceRec(n int) *traceRec {
	r := traceRecPool.Get().(*traceRec)
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
