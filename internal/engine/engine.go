// Package engine is the query-serving subsystem built on top of the
// fastintersect library: the layer between the paper's intersection
// algorithms and a search service.
//
// Documents are hash-partitioned across S shards. Each shard is a tiered
// segmented index (internal/segment): k frozen segments of posting lists —
// the one Install builds is simply the first — and one active mutable
// segment, each carrying its own tombstone filter, so the corpus stays
// mutable (AddDocument / DeleteDocument) — every document is visible in
// exactly one segment, so each shard evaluates a query f as the k-way
// union of (f(segment) − segment tombstones) across its tier. One evaluator
// runs the plan over every segment: every operand is a sorted []uint32,
// and conjunctions push down to BitsegAnd or to a pairwise chain of
// BitProbe and Gallop, whichever the cost model picks for the lists (and
// each pair) at hand.
// Background compaction (see mutable.go) is incremental: the active segment
// freezes into the tier by a map move, a size-tiered merge coalesces only
// the smallest segments, and a full compaction — a merge of every segment
// through the parallel build Install runs — happens only on demand
// (Compact) or when the largest segment's tombstones accumulate.
//
// A query is parsed and normalized by internal/plan (the canonical form is
// the cache key), looked up in an LRU result cache, and on a miss lowered
// to one physical plan against engine-aggregate statistics and evaluated
// on every shard in turn, on the calling goroutine under one bounded
// worker slot; each shard executes the plan (see exec.go), re-pricing
// kernels on its actual operand sizes through the planner's cost model,
// and the per-shard sorted results are merged. In a frozen segment, a
// conjunction whose two head lists both hold at least 2,500 docIDs takes
// their intersection from the pair cache (see paircache.go): entries are
// keyed per frozen segment, stay valid under every mutation and leave with
// the segment, under one budget per engine; plans never consult it. A
// query starts no goroutine: parallelism comes from concurrent queries,
// while Install, merges and snapshot loads still build in parallel. The
// cost model prices with one table, the planner's committed
// plan.DefaultCosts or the one Config.PlanCosts supplies, and nothing
// corrects it at run time: a plan depends on the query and the index,
// never on the host or on the traffic served before it. Cache entries are
// stamped with the engine's index generation — every mutation
// and rebuild bumps it — so a cached result can never resurrect a deleted
// document. Explain returns the executed plan; QueryBatch amortizes
// parsing, planning and one execution context across many queries.
//
// Every frozen posting list is a segment.List: an exact-size sorted
// []uint32 with its span and its lazily attached bitseg form, whichever
// path built it (Install, a merge, a snapshot load; a freeze adopts the
// active segment's arrays). Stats reports the exact posting footprint.
// internal/compress keeps the paper's compressed encodings as a library
// tier; the engine does not link it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastintersect/internal/obs"
	"fastintersect/internal/plan"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of hash partitions (default 1).
	Shards int
	// Workers bounds how many queries evaluate at once (default
	// GOMAXPROCS): each query, or QueryBatch call, holds one slot while it
	// evaluates its shards one after another. It also sets the build
	// parallelism of Install, merges and snapshot loads.
	Workers int
	// CacheSize is the result-cache capacity in entries (0 disables it).
	CacheSize int
	// CompactThreshold triggers a background compaction of a shard once its
	// active segment holds that many postings: the active segment freezes,
	// and a size-tiered merge follows when the tier exceeds MaxSegments. It
	// escalates to a full compaction once the shard's largest segment holds
	// 4× that many tombstones (see mutable.go). 0 disables automatic
	// compaction; Compact, FreezeActive and MergeSegments remain available.
	CompactThreshold int
	// MaxSegments bounds the frozen segments that may sit beside a shard's
	// largest one (the installed or fully compacted segment) before a
	// background size-tiered merge coalesces the smallest (0 = default of
	// 4). Smaller values favor query latency (fewer segments per query),
	// larger values favor write amplification.
	MaxSegments int
	// PlanCosts is the cost table the query planner and every shard's
	// re-pricing read, as it is: nothing corrects it at run time. Nil
	// prices with the committed table, plan.DefaultCosts. A host whose
	// kernels run at other speeds, or a test that pins or distorts a
	// choice, supplies its own; kernel choice never changes results.
	PlanCosts *plan.Costs
	// TraceSample traces 1 in N queries with per-stage and per-operator
	// timing (0 = the package default of 64). Sampled traces feed the stage
	// histograms and per-kernel counters on Metrics(); unsampled queries
	// pay one atomic add and a nil check per operator.
	TraceSample int
	// NoMetrics disables the latency/stage histograms and trace sampling
	// (the plain operation counters stay on — they are one sharded atomic
	// add each). Exists for the CI overhead guard and for embedders that
	// bring their own instrumentation.
	NoMetrics bool
	// Faults, when non-nil, enables deterministic fault injection on the
	// shard-evaluation path (added latency, forced errors, forced panics)
	// for the engine's and fsiserve's cancellation, deadline and
	// panic-barrier tests. Nil — the production default — costs one pointer
	// check per shard evaluation. See faults.go.
	Faults *FaultPlan
}

// Engine serves queries against a sharded inverted index. All methods are
// safe for concurrent use; Query may run while Install swaps in a rebuilt
// index, while AddDocument/DeleteDocument mutate shards, and while a
// compaction swaps a shard's segments.
type Engine struct {
	cfg     Config
	costs   *plan.Costs // cost-model coefficients (configured or the committed table)
	workers chan struct{}
	cache   *cache
	plans   *planCache
	pairs   *pairCache // head-pair intersections per frozen segment (paircache.go)

	mu     sync.RWMutex
	shards []*shard

	// gen is the index generation: bumped after every Install and every
	// document mutation. Query snapshots it BEFORE reading shard state and
	// stamps cache entries with it, so entries computed against superseded
	// state are never served (see cache.go). Compactions do not bump it —
	// they change the representation, not the visible document set.
	gen atomic.Uint64

	// statsEpoch tracks wholesale index replacement: bumped by every Install
	// and LoadSnapshot, the events that swap in a new corpus and so change
	// the statistics a physical plan was priced against wholesale. The plan
	// cache stamps entries with it (see plancache.go); compactions and
	// document mutations deliberately leave it alone — they only move or
	// add postings, and a slightly stale plan is correctness-safe because
	// shards re-price kernels on actual sizes at execution.
	statsEpoch atomic.Uint64

	// met is the observability surface: operation counters, latency and
	// stage histograms, per-kernel counters and the trace sampler, all on a
	// per-engine obs.Registry (see metrics.go and Metrics).
	met *engineMetrics

	// faultCtr sequences Config.Faults.{ErrEvery,PanicEvery} injections so
	// "every Nth evaluation" is exact across concurrent queries.
	faultCtr atomic.Uint64
}

// ErrNotBuilt is returned by Query and the mutation methods before any index
// has been installed. To start from an empty corpus, Install an empty
// Builder first.
var ErrNotBuilt = errors.New("engine: no index installed; Install a Builder first")

// New creates an engine with no index installed.
func New(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	costs := cfg.PlanCosts
	if costs == nil {
		costs = plan.DefaultCosts()
	}
	e := &Engine{
		cfg:     cfg,
		costs:   costs,
		workers: make(chan struct{}, cfg.Workers),
		cache:   newCache(cfg.CacheSize),
		plans:   newPlanCache(),
	}
	e.met = newEngineMetrics(e, cfg)
	e.pairs = newPairCache(e.met.reg)
	return e
}

// Metrics returns the engine's metric registry — operation counters, the
// query-latency and per-stage histograms, per-kernel counters and the
// cache/generation callback series — for rendering via
// obs.Registry.WritePrometheus (fsiserve mounts it at GET /metrics).
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// shardOf routes a document to its partition (Fibonacci hashing on the
// docID so consecutive IDs spread evenly).
func shardOf(docID uint32, shards int) int {
	return int((uint64(docID) * 0x9E3779B97F4A7C15 >> 33) % uint64(shards))
}

// Builder accumulates documents for one build: each shard's pending term →
// docIDs postings, in any order and with duplicates, which Install hands
// to segment.Build. It is not safe for concurrent use, and it installs
// once: a second Install, and Add or AddPosting after Install, fail.
type Builder struct {
	shards    []map[string][]uint32
	installed bool
}

var errInstalled = errors.New("engine: builder already installed")

// NewBuilder returns an empty builder with the engine's sharding.
func (e *Engine) NewBuilder() *Builder {
	b := &Builder{shards: make([]map[string][]uint32, e.cfg.Shards)}
	for i := range b.shards {
		b.shards[i] = map[string][]uint32{}
	}
	return b
}

// Add records a document in its home shard. Empty terms are skipped.
// Repeating a term, or adding the same docID more than once, unions its
// terms; it is still counted as one document.
func (b *Builder) Add(docID uint32, terms []string) error {
	if b.installed {
		return errInstalled
	}
	pending := b.shards[shardOf(docID, len(b.shards))]
	for _, t := range terms {
		if t != "" {
			pending[t] = append(pending[t], docID)
		}
	}
	return nil
}

// AddPosting records a whole term → docIDs posting list, partitioning it
// across shards (builder-style input for corpora that arrive term-major).
func (b *Builder) AddPosting(term string, docIDs []uint32) error {
	if b.installed {
		return errInstalled
	}
	if len(b.shards) == 1 {
		b.shards[0][term] = append(b.shards[0][term], docIDs...)
		return nil
	}
	parts := make([][]uint32, len(b.shards))
	for _, d := range docIDs {
		s := shardOf(d, len(b.shards))
		parts[s] = append(parts[s], d)
	}
	for s, part := range parts {
		if len(part) > 0 {
			b.shards[s][term] = append(b.shards[s][term], part...)
		}
	}
	return nil
}

// Install builds every shard concurrently (each shard additionally
// parallelizes over its terms, so total build goroutines ≈ max(Workers,
// Shards) — one per shard at minimum), swaps the new shard set in, and
// bumps the index generation so cached results from the previous index are
// never served. A builder installs once: installing it again fails and
// leaves the installed index as it was.
//
// The builder must come from an engine with the same shard count: installing
// a mismatched builder would mis-route both queries and the mutation API,
// since shardOf partitions by the installed shard count.
func (e *Engine) Install(b *Builder) error {
	if b.installed {
		return errInstalled
	}
	if len(b.shards) != e.cfg.Shards {
		return fmt.Errorf("engine: cannot install a %d-shard builder into a %d-shard engine (builders are engine-specific; use NewBuilder on this engine)",
			len(b.shards), e.cfg.Shards)
	}
	b.installed = true
	// Each built segment is its shard's first. segment.Build consumes the
	// pending postings, so the builder lets go of them.
	shards := make([]*shard, len(b.shards))
	var wg sync.WaitGroup
	for i, pending := range b.shards {
		shards[i] = &shard{active: segment.NewMutable()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[i].appendSeg(segment.Build(pending, e.shardWorkers()))
		}()
	}
	wg.Wait()
	clear(b.shards)
	e.swapShards(shards)
	return nil
}

// swapShards publishes a shard set that Install or LoadSnapshot built,
// bumping the generation and the stats epoch: a new corpus makes every
// cached result and memoized plan stale. The outgoing shards are retired
// BEFORE they become unreachable: a mutation that snapshotted the old set
// re-checks the flag after locking its shard (see lockShard) and retries
// against the new set, so an acknowledged AddDocument/DeleteDocument can
// never land in a shard this swap discards. A retired shard's tier never
// changes again, so its segments leave the pair cache with their entries
// as the new set's join it.
func (e *Engine) swapShards(shards []*shard) {
	var added, retired []*segment.Frozen
	for _, s := range shards {
		added = append(added, s.segs...)
	}
	e.mu.Lock()
	for _, s := range e.shards {
		s.mu.Lock()
		s.retired = true
		retired = append(retired, s.segs...)
		s.mu.Unlock()
	}
	e.pairs.replace(retired, added...)
	e.shards = shards
	e.mu.Unlock()
	e.gen.Add(1)
	e.statsEpoch.Add(1)
	e.met.rebuilds.Inc()
}

// shardWorkers is the build parallelism each shard gets when every shard
// builds at once (Install, LoadSnapshot) or one shard compacts fully.
func (e *Engine) shardWorkers() int { return max(1, e.cfg.Workers/e.cfg.Shards) }

// snapshot returns the current shard set, or nil before Install.
func (e *Engine) snapshot() []*shard {
	e.mu.RLock()
	shards := e.shards
	e.mu.RUnlock()
	return shards
}

// Result is one query's outcome.
type Result struct {
	// Docs are the matching document IDs, ascending. The slice is shared
	// with the cache; callers must not modify it. Nil for count-only
	// queries (QueryCount), which never materialize the merged result.
	Docs []uint32
	// Count is the number of matching documents — len(Docs) for
	// materializing queries, and the only output of count-only ones.
	Count int
	// Normalized is the canonical form of the query (the cache key).
	Normalized string
	// Cached reports whether the result came from the LRU.
	Cached bool
}

// Query parses, plans and executes a query across all shards: the logical
// tree is normalized (the canonical form keys the result cache), lowered
// to one physical plan against engine-aggregate statistics, and the plan is
// executed per shard inside a pooled execution context (see execctx.go).
// The merged result is always a fresh slice — never aliasing a posting list
// or a pooled buffer — so it is safe to cache and to hand to the caller
// while the contexts are recycled into concurrent queries.
func (e *Engine) Query(q string) (*Result, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryContext is Query bounded by a context: when ctx carries a deadline
// or is cancelled, the evaluation aborts mid-shard (the exec loops poll the
// context between operators) and the context's error is returned. The
// abort is clean — bounded worker slots are released, pooled execution
// contexts are recycled, and nothing partial lands in the result cache. A
// non-cancellable context (context.Background) costs one nil check per
// operator, keeping the uncontended fast path allocation-identical to
// Query.
func (e *Engine) QueryContext(ctx context.Context, q string) (*Result, error) {
	res, _, err := e.execute(ctx, q, modeQuery)
	return res, err
}

// Explain is Query plus the executed physical plan rendered as an operator
// tree (kernel per conjunction, operand order, cardinality and cost
// estimates). The plan is rebuilt even on a cache hit, so the
// rendering always reflects current index statistics.
func (e *Engine) Explain(q string) (*Result, string, error) {
	return e.execute(context.Background(), q, modeExplain)
}

// ExplainContext is Explain bounded by a context (see QueryContext).
func (e *Engine) ExplainContext(ctx context.Context, q string) (*Result, string, error) {
	return e.execute(ctx, q, modeExplain)
}

// ExplainAnalyze executes the query with a full per-operator trace —
// bypassing the result cache, so the plan really runs — and renders the
// executed plan with measured rows and time next to each operator's
// estimates, followed by the stage and per-shard timing breakdown: est_rows
// beside act_rows per operator shows where execution departs from the cost
// model's estimates. The result is still written to the cache, so an
// analyzed query warms it like any other.
func (e *Engine) ExplainAnalyze(q string) (*Result, string, error) {
	return e.execute(context.Background(), q, modeAnalyze)
}

// ExplainAnalyzeContext is ExplainAnalyze bounded by a context (see
// QueryContext).
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, q string) (*Result, string, error) {
	return e.execute(ctx, q, modeAnalyze)
}

// QueryCount executes q and returns only the number of matching documents:
// Result.Count is set and Result.Docs stays nil. The count path skips
// result materialization entirely — per-shard result lengths are summed
// (shards partition the docID space, so the per-shard results are
// disjoint) without building or copying a merged slice. Planning, caching
// of plans, and kernel execution are identical to Query; only the final
// merge/copy is elided, so a count costs strictly less than the query it
// counts. A cached materialized result is still served (as its length).
func (e *Engine) QueryCount(q string) (*Result, error) {
	return e.QueryCountContext(context.Background(), q)
}

// QueryCountContext is QueryCount bounded by a context (see QueryContext).
func (e *Engine) QueryCountContext(ctx context.Context, q string) (*Result, error) {
	res, _, err := e.execute(ctx, q, modeCount)
	return res, err
}

// Canonicalize parses q and returns its canonical (normalized) form — the
// key the result cache and the admission tier's request coalescer share.
// Two spellings with the same canonical form are the same query: they hit
// the same cache entry, and an admission layer may safely have them share
// one in-flight execution.
func (e *Engine) Canonicalize(q string) (string, error) {
	ast, err := plan.Parse(q)
	if err != nil {
		return "", err
	}
	return ast.String(), nil
}

// execMode selects what execute returns beyond the result.
type execMode uint8

const (
	modeQuery   execMode = iota // result only
	modeExplain                 // result + estimated plan (cache may serve the result)
	modeAnalyze                 // result + executed plan with actuals (cache bypassed)
	modeCount                   // count only: per-shard counts merged, no result materialized
)

// execute wraps executeQuery with the per-query observability: the query
// counter, the latency histogram, the sampling decision and the trace
// lifecycle. The query is timed only when the histograms are on; a trace
// times its own stages.
func (e *Engine) execute(ctx context.Context, q string, mode execMode) (*Result, string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m := e.met
	m.queries.Inc()
	var tr *obs.Trace
	if mode == modeAnalyze || m.sampleTrace() {
		tr = obs.GetTrace()
	}
	var start time.Time
	if m.enabled {
		start = time.Now()
	}
	res, expl, err := e.executeQuery(ctx, q, mode, tr)
	if err != nil {
		m.queryErrors.Inc()
	}
	if m.enabled {
		m.latency.Observe(time.Since(start))
		if tr != nil {
			for s, ns := range tr.Stages {
				if ns > 0 {
					m.stages[s].Observe(time.Duration(ns))
				}
			}
		}
	}
	obs.PutTrace(tr)
	return res, expl, err
}

// stamp records the time since *t0 into tr's stage s and advances *t0.
// No-op without a trace, so call sites need no guards.
func stamp(tr *obs.Trace, s obs.Stage, t0 *time.Time) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.Stages[s] = now.Sub(*t0).Nanoseconds()
	*t0 = now
}

func (e *Engine) executeQuery(ctx context.Context, q string, mode execMode, tr *obs.Trace) (*Result, string, error) {
	if ctx.Done() != nil {
		// One up-front check so a request whose deadline expired while it
		// queued upstream never starts planning at all.
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	ast, err := plan.Parse(q)
	if err != nil {
		return nil, "", err
	}
	stamp(tr, obs.StageParse, &t0)
	key := ast.String()
	stamp(tr, obs.StageNormalize, &t0)
	// Snapshot the index generation BEFORE the shard state: if a mutation or
	// Install lands while we evaluate, the entry we put below is stamped with
	// a superseded generation and can never be served.
	gen := e.gen.Load()
	var docs []uint32
	hit := false
	if mode != modeAnalyze {
		// Analyze mode bypasses the probe: its whole point is to measure a
		// real execution, and serving the cached docs would render every
		// operator "(not executed)".
		docs, hit = e.cache.get(key, gen)
		stamp(tr, obs.StageCache, &t0)
	}
	if hit && mode == modeCount {
		return &Result{Count: len(docs), Normalized: key, Cached: true}, "", nil
	}
	if hit && mode == modeQuery {
		return &Result{Docs: docs, Count: len(docs), Normalized: key, Cached: true}, "", nil
	}
	shards := e.snapshot()
	if shards == nil {
		return nil, "", ErrNotBuilt
	}
	// The stats epoch is loaded BEFORE the statistics are read: if an
	// Install or snapshot load swaps shards in between, the plan built below
	// is stamped with the superseded epoch and rebuilt on its next lookup
	// instead of lingering with the old corpus's estimates.
	epoch := e.statsEpoch.Load()
	cacheablePlan := mode == modeQuery || mode == modeCount
	var pp *plan.Plan
	var pc *planCtx
	if cacheablePlan {
		pp = e.plans.get(key, epoch)
	}
	if pp != nil {
		e.met.planHits.Inc()
	} else {
		pc = getPlanCtx()
		pc.stats.fill(shards)
		if cacheablePlan {
			// Build into a cache-owned plan (shared read-only by later
			// queries); Explain/Analyze rebuild into the pooled arena so
			// their rendering always reflects current statistics.
			e.met.planMisses.Inc()
			pp = plan.Build(new(plan.Plan), ast, key, &pc.stats, e.costs)
			e.plans.put(key, pp, epoch)
		} else {
			pp = plan.Build(&pc.plan, ast, key, &pc.stats, e.costs)
		}
	}
	stamp(tr, obs.StagePlan, &t0)
	expl := ""
	if mode == modeExplain {
		expl = pp.Explain()
	}
	if hit {
		putPlanCtx(pc)
		return &Result{Docs: docs, Count: len(docs), Normalized: key, Cached: true}, expl, nil
	}
	var agg *traceRec
	if tr != nil {
		agg = getTraceRec(len(pp.Ops))
	}
	merged, count, err := e.executePlan(ctx, shards, pp, tr, agg, mode == modeCount)
	if err != nil {
		putTraceRec(agg)
		putPlanCtx(pc)
		return nil, "", err
	}
	if tr != nil {
		e.met.recordKernels(agg)
	}
	if mode == modeAnalyze {
		expl = renderAnalyze(pc, pp, agg, tr)
	}
	putTraceRec(agg)
	putPlanCtx(pc)
	if mode == modeCount {
		// Nothing was materialized, so there is nothing to cache; a later
		// materializing query for the same canonical form will populate the
		// LRU and counts will hit it from then on.
		return &Result{Count: count, Normalized: key}, expl, nil
	}
	e.cache.put(key, merged, gen)
	return &Result{Docs: merged, Count: count, Normalized: key}, expl, nil
}

// renderAnalyze renders the executed plan with actuals plus the stage and
// per-shard breakdown of the trace. The OpActual arena rides on the plan
// context so steady-state analyze calls reuse it.
func renderAnalyze(pc *planCtx, pp *plan.Plan, agg *traceRec, tr *obs.Trace) string {
	if cap(pc.actuals) < len(agg.ops) {
		pc.actuals = make([]plan.OpActual, len(agg.ops))
	}
	pc.actuals = pc.actuals[:len(agg.ops)]
	for i, a := range agg.ops {
		pc.actuals[i] = plan.OpActual{Execs: a.execs, Rows: a.rows, Ns: a.ns, PairHits: a.pairHits}
	}
	var sb strings.Builder
	sb.WriteString(pp.ExplainAnalyze(pc.actuals))
	sb.WriteString("stages:")
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if ns := tr.Stages[s]; ns > 0 {
			fmt.Fprintf(&sb, " %s=%s", s, fmtNs(ns))
		}
	}
	sb.WriteString("\n")
	for _, sp := range tr.Shards {
		fmt.Fprintf(&sb, "shard %d: rows=%d time=%s\n", sp.Shard, sp.Rows, fmtNs(sp.Ns))
	}
	return sb.String()
}

// fmtNs matches the plan package's cost rendering (ns/µs/ms).
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// acquireWorker takes one bounded worker slot, or gives up when ctx is
// cancelled first — a query whose deadline expires while it waits for a
// slot must not start evaluating. The caller releases the slot with
// <-e.workers only after a nil return. Non-cancellable contexts take the
// plain channel send (no select overhead).
func (e *Engine) acquireWorker(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		e.workers <- struct{}{}
		return nil
	}
	select {
	case e.workers <- struct{}{}:
		return nil
	case <-done:
		return ctx.Err()
	}
}

// executePlan runs one physical plan over the shard set on the calling
// goroutine, under one bounded worker slot and one pooled execCtx, and
// returns the merged docs and their count (see runShards). When the query
// is traced (tr and agg non-nil, always together), every shard records its
// per-operator actuals straight into agg, and the per-shard spans and the
// exec/merge stage timings land on tr.
//
// Abort discipline: a cancelled context or a failing/panicking shard stops
// the loop at that shard and never leaks resources. The worker slot is
// released by a deferred receive, the execCtx returns to the pool on every
// path, and no goroutine is started, so none can outlive the call.
func (e *Engine) executePlan(ctx context.Context, shards []*shard, pp *plan.Plan, tr *obs.Trace, agg *traceRec, countOnly bool) ([]uint32, int, error) {
	if err := e.acquireWorker(ctx); err != nil {
		return nil, 0, err
	}
	defer func() { <-e.workers }()
	c := getExecCtx()
	c.attachCtx(ctx)
	c.rec = agg // nil for untraced queries
	merged, count, err := e.runShards(c, shards, pp, tr, countOnly)
	// agg is owned by the caller: detach it before the context returns to
	// the pool, or putExecCtx would recycle it.
	c.rec = nil
	putExecCtx(c)
	return merged, count, err
}

// runShards evaluates p on every shard in turn on c, stopping at the first
// error, and merges the per-shard sorted results into a fresh slice. Under
// countOnly the merge is elided entirely: the per-shard result lengths are
// summed (shards partition the docID space, so the sorted per-shard
// results are disjoint) and the docs return is nil. Every shard result
// stays parked on c until the merge has consumed it, and is recycled on
// every path before runShards returns.
func (e *Engine) runShards(c *execCtx, shards []*shard, p *plan.Plan, tr *obs.Trace, countOnly bool) ([]uint32, int, error) {
	var t0, last time.Time
	if tr != nil {
		t0 = time.Now()
		last = t0
	}
	total := 0
	for i, s := range shards {
		docs, owned, err := e.evalShard(c, s, i, p)
		if err != nil {
			c.dropResults()
			return nil, 0, err
		}
		c.results = append(c.results, docs)
		c.owned = append(c.owned, owned)
		total += len(docs)
		if tr != nil {
			now := time.Now()
			tr.Shards = append(tr.Shards, obs.ShardSpan{Shard: i, Rows: len(docs), Ns: now.Sub(last).Nanoseconds()})
			last = now
		}
	}
	stamp(tr, obs.StageExec, &t0)
	// Disjoint shards make merging a pure interleave; the k-way union
	// writes into a fresh exactly-sized slice, so the merged result never
	// aliases a posting list or a pooled buffer.
	var merged []uint32
	if !countOnly {
		merged = sets.UnionKInto(make([]uint32, 0, total), c.results...)
	}
	c.dropResults()
	stamp(tr, obs.StageMerge, &t0)
	return merged, total, nil
}

// PostingStats is the engine-wide posting-payload accounting of each
// shard's largest segment (the installed or fully compacted one in steady
// state, which holds nearly every posting): its posting count and the
// bytes its lists hold — 4 per posting, since every list is an exact-size
// []uint32. The rest of the tier is accounted in DeltaStats.
type PostingStats struct {
	Total       uint64 `json:"total"`
	StoredBytes uint64 `json:"stored_bytes"`
}

// DeltaStats is the point-in-time accounting of the mutable tier across all
// shards: every segment beside each shard's largest one (the other frozen
// segments plus the active segment) — what a full compaction would fold
// into it — and the tombstone filters.
type DeltaStats struct {
	// Docs is the number of documents held by those segments (including
	// tombstoned frozen documents).
	Docs int `json:"docs"`
	// Postings is the total posting count across those segments.
	Postings int `json:"postings"`
	// Tombstones is the total tombstoned docID count across every segment's
	// filter, the largest segment's included (including the suppression
	// tombstones that shadow older copies of rewritten documents).
	Tombstones int `json:"tombstones"`
	// Segments is the count of frozen segments beside each shard's largest
	// one, summed across shards.
	Segments int `json:"segments"`
	// CompactingShards is the number of shards with a claimed (possibly not
	// yet started) background compaction.
	CompactingShards int `json:"compacting_shards"`
}

// Generation returns the current index generation — bumped by every
// Install and every effective document mutation. Unlike Stats, it is a
// single atomic load, cheap enough for per-request use.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// Stats is a point-in-time snapshot of the engine.
type Stats struct {
	Shards      int          `json:"shards"`
	Docs        uint64       `json:"docs"`
	Terms       int          `json:"terms"`
	ShardTerms  []int        `json:"shard_terms,omitempty"`
	Postings    PostingStats `json:"postings"`
	Queries     uint64       `json:"queries"`
	QueryErrors uint64       `json:"query_errors"`
	Rebuilds    uint64       `json:"rebuilds"`
	Mutations   uint64       `json:"mutations"`
	Compactions uint64       `json:"compactions"`
	// SegmentFreezes / SegmentMerges / CompactionBytes are the tiered
	// lifecycle counters: active-segment freezes, size-tiered merges, and
	// the bytes written by size-tiered merges and full compactions (the
	// write-amplification numerator; 4 bytes per posting written).
	SegmentFreezes  uint64 `json:"segment_freezes"`
	SegmentMerges   uint64 `json:"segment_merges"`
	CompactionBytes uint64 `json:"compaction_bytes"`
	// ShardSegments is the per-shard frozen segment count (the installed
	// segment included; a shard holding no document has none).
	ShardSegments []int  `json:"shard_segments,omitempty"`
	Generation    uint64 `json:"generation"`
	// StatsEpoch counts index replacements (installs and snapshot loads);
	// PlanCacheEntries is the number of physical plans memoized against the
	// current epoch's statistics.
	StatsEpoch       uint64     `json:"stats_epoch"`
	PlanCacheEntries int        `json:"plan_cache_entries"`
	Delta            DeltaStats `json:"delta"`
	Workers          int        `json:"workers"`
	Cache            CacheStats `json:"cache"`
	// PairCache reports the cache of head-pair intersections (see
	// paircache.go) from its fsi_pair_cache_* series.
	PairCache PairCacheStats `json:"pair_cache"`
	// KernelExecs counts the intersection-kernel runs of sampled queries
	// by the kernel that ran: one per pair of a pairwise chain and one per
	// BitsegAnd, in every segment of every shard. Only non-zero kernels
	// appear; nil when metrics are disabled.
	KernelExecs map[string]uint64 `json:"kernel_execs,omitempty"`
}

// Stats returns current counters. Docs counts distinct live documents:
// every document visible in some segment (each is visible in exactly one).
// Terms counts distinct (term, shard) pairs over each shard's largest
// segment — every indexed pair right after Install or Compact: a term whose
// postings span k shards contributes k. Postings describes the same
// segments, Delta the rest of the tier.
func (e *Engine) Stats() Stats {
	shards := e.snapshot()
	st := Stats{
		Shards:          e.cfg.Shards,
		Queries:         e.met.queries.Value(),
		QueryErrors:     e.met.queryErrors.Value(),
		Rebuilds:        e.met.rebuilds.Value(),
		Mutations:       e.met.mutations.Value(),
		Compactions:     e.met.compactions.Value(),
		SegmentFreezes:  e.met.segmentFreezes.Value(),
		SegmentMerges:   e.met.segmentMerges.Value(),
		CompactionBytes: e.met.compactionBytes.Value(),
		Generation:      e.gen.Load(),
		StatsEpoch:      e.statsEpoch.Load(),
		Workers:         e.cfg.Workers,
		Cache:           e.cache.stats(),
		PairCache:       e.pairs.stats(),
	}
	st.PlanCacheEntries = e.plans.entries()
	if e.met.enabled {
		for k := plan.Kernel(1); int(k) < plan.KernelCount; k++ {
			if n := e.met.kernelExecs[k].Value(); n > 0 {
				if st.KernelExecs == nil {
					st.KernelExecs = map[string]uint64{}
				}
				st.KernelExecs[k.String()] = n
			}
		}
	}
	for _, s := range shards {
		s.mu.RLock()
		var largest *segment.Frozen
		big := s.largestLocked()
		st.Docs += uint64(s.liveLocked())
		st.Delta.Docs += s.active.NumDocs()
		st.Delta.Postings += s.active.NumPostings()
		for i, f := range s.segs {
			st.Delta.Tombstones += len(f.Tombs())
			if i == big {
				largest = f
				continue
			}
			st.Delta.Docs += f.NumDocs()
			st.Delta.Postings += f.NumPostings()
			st.Delta.Segments++
		}
		st.ShardSegments = append(st.ShardSegments, len(s.segs))
		if s.compacting {
			st.Delta.CompactingShards++
		}
		s.mu.RUnlock()
		if largest == nil {
			st.ShardTerms = append(st.ShardTerms, 0)
			continue
		}
		st.Terms += largest.NumTerms()
		st.ShardTerms = append(st.ShardTerms, largest.NumTerms())
		st.Postings.Total += uint64(largest.NumPostings())
	}
	st.Postings.StoredBytes = 4 * st.Postings.Total
	return st
}
