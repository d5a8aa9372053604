package engine

import (
	"context"

	"fastintersect/internal/plan"
)

// BatchResult pairs one query of a QueryBatch call with its outcome.
// Exactly one of Result and Err is set.
type BatchResult struct {
	Result *Result
	Err    error
}

// QueryBatch executes many queries as one unit, amortizing what a loop of
// Query calls would repeat:
//
//   - queries that normalize to the same canonical form are parsed, planned
//     and executed once (they share one *Result);
//   - all cache misses of the batch are planned against one statistics
//     snapshot and evaluated by ONE pooled execution context under one
//     bounded worker slot, so its buffers and frames are shared across the
//     whole batch.
//
// Results are positionally aligned with queries. Parse failures are
// reported per query; an evaluation error fails only the queries sharing
// that canonical form. Like Query, every returned Docs slice is fresh or
// cache-shared and safe to retain.
func (e *Engine) QueryBatch(queries []string) []BatchResult {
	return e.QueryBatchContext(context.Background(), queries)
}

// QueryBatchCount is QueryBatch in count-only mode: every result carries
// only Result.Count (Docs stays nil), and the batch skips result
// materialization the same way QueryCount does — per-shard result lengths
// are summed without building merged slices. Deduplication, shared
// planning and the execution-context sharing are identical to QueryBatch.
func (e *Engine) QueryBatchCount(queries []string) []BatchResult {
	return e.QueryBatchCountContext(context.Background(), queries)
}

// QueryBatchCountContext is QueryBatchCount under a request context (see
// QueryBatchContext).
func (e *Engine) QueryBatchCountContext(ctx context.Context, queries []string) []BatchResult {
	return e.queryBatch(ctx, queries, true)
}

// QueryBatchContext is QueryBatch under a request context: a cancelled or
// expired ctx aborts the remaining evaluations, and every query that did not
// complete before the abort reports ctx's error. The evaluation observes
// the context at every shard entry and inside the exec loops (the same
// polling Query uses), so a batch never outlives its deadline by more than
// one poll interval.
func (e *Engine) QueryBatchContext(ctx context.Context, queries []string) []BatchResult {
	return e.queryBatch(ctx, queries, false)
}

func (e *Engine) queryBatch(ctx context.Context, queries []string, countOnly bool) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	e.met.batches.Inc()
	e.met.queries.Add(uint64(len(queries)))

	// Parse and deduplicate by canonical form, preserving first-seen order.
	byKey := map[string]*batchPending{}
	var uniq []*batchPending
	for i, q := range queries {
		ast, err := plan.Parse(q)
		if err != nil {
			e.met.queryErrors.Inc()
			out[i] = BatchResult{Err: err}
			continue
		}
		key := ast.String()
		u, ok := byKey[key]
		if !ok {
			u = &batchPending{key: key, ast: ast}
			byKey[key] = u
			uniq = append(uniq, u)
		}
		u.idxs = append(u.idxs, i)
	}

	gen := e.gen.Load()
	var pending []*batchPending
	for _, u := range uniq {
		if docs, ok := e.cache.get(u.key, gen); ok {
			if countOnly {
				u.res = &Result{Count: len(docs), Normalized: u.key, Cached: true}
			} else {
				u.res = &Result{Docs: docs, Count: len(docs), Normalized: u.key, Cached: true}
			}
			continue
		}
		pending = append(pending, u)
	}

	if len(pending) > 0 {
		shards := e.snapshot()
		if shards == nil {
			for _, u := range pending {
				e.met.queryErrors.Add(uint64(len(u.idxs)))
				u.err = ErrNotBuilt
			}
		} else {
			e.runBatch(ctx, shards, pending, gen, countOnly)
		}
	}

	for _, u := range uniq {
		for _, i := range u.idxs {
			out[i] = BatchResult{Result: u.res, Err: u.err}
		}
	}
	return out
}

// batchPending is one canonical form of a batch: the queries that share it,
// its plan context while executing, and its outcome.
type batchPending struct {
	key  string
	ast  plan.Node
	pc   *planCtx
	res  *Result
	err  error
	idxs []int // positions in the caller-aligned result slice
}

// runBatch plans every pending canonical form once and evaluates the plans
// one after another on the calling goroutine, under one bounded worker
// slot and one pooled execution context whose buffers the whole batch
// shares. An evaluation error fails only the canonical form that hit it;
// a cancelled context fails every form not yet evaluated, at its first
// shard's entry check.
func (e *Engine) runBatch(ctx context.Context, shards []*shard, pending []*batchPending, gen uint64, countOnly bool) {
	var stats *planStats
	for _, u := range pending {
		u.pc = getPlanCtx()
		if stats == nil {
			u.pc.stats.fill(shards)
			stats = &u.pc.stats
		}
		plan.Build(&u.pc.plan, u.ast, u.key, stats, e.costs)
	}
	acquireErr := e.acquireWorker(ctx)
	if acquireErr == nil {
		defer func() { <-e.workers }()
	}
	c := getExecCtx()
	c.attachCtx(ctx)
	for _, u := range pending {
		var merged []uint32
		total, err := 0, acquireErr
		if err == nil {
			merged, total, err = e.runShards(c, shards, &u.pc.plan, nil, countOnly)
		}
		switch {
		case err != nil:
			e.met.queryErrors.Add(uint64(len(u.idxs)))
			u.err = err
		case countOnly:
			// Nothing was materialized, so nothing is cached.
			u.res = &Result{Count: total, Normalized: u.key}
		default:
			e.cache.put(u.key, merged, gen)
			u.res = &Result{Docs: merged, Count: total, Normalized: u.key}
		}
		putPlanCtx(u.pc)
		u.pc = nil
	}
	putExecCtx(c)
}
