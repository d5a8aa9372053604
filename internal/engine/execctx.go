package engine

import (
	"context"
	"sync"

	"fastintersect/internal/bitseg"
	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

// execCtx is the engine's per-shard-evaluation execution context: it owns
// every piece of transient memory evalShard needs — a free list of result
// buffers, kernel scratch and a free list of evaluation frames. One
// context serves one evalShard call at a time; Query draws one per shard
// from the package pool so concurrent shard evaluations never share
// scratch.
//
// Ownership rules (the "memory discipline" ARCHITECTURE.md documents):
//
//   - evalShard returns (docs, owned): owned=true means docs is backed by a
//     buffer of this context, which the caller recycles with putBuf once
//     the docs are consumed; owned=false means docs aliases index memory
//     (a posting list) and must be treated as read-only — it is never
//     recycled directly.
//   - Every buffer handed out by getBuf returns to the free list exactly
//     once: through putBuf when its consumer is done, or through
//     releaseFrame for results parked in a frame. Buffers never escape the
//     context: Query copies the final
//     docs into a fresh slice before caching or returning them.
type execCtx struct {
	free [][]uint32
	pool []*evalFrame
	ops  []plan.Operand // scratch for per-segment kernel pricing
	bits []*bitseg.List // scratch for BitsegAnd's operands; cleared after each run

	// probe is BitProbe's bitmap window (32 KB whatever the docID
	// universe), allocated on first use. Every kernel run leaves it all
	// zero; evalShard's panic barrier drops it, since a run it cut short
	// may not have.
	probe *sets.BitProbeWindow

	// rec, when non-nil, makes evalOp record per-operator actuals (execs,
	// rows, inclusive ns) into it — set by executePlan for traced queries,
	// indexed parallel to the executing plan's Ops. Untraced queries pay
	// one nil check per operator.
	rec *traceRec

	// ctx, when non-nil, is a cancellable request context: the exec loops
	// poll it (pollCancel) so an expired deadline aborts the evaluation
	// mid-shard. attachCtx leaves it nil for non-cancellable contexts, so
	// the fast path pays a single nil check per operator. Cleared by
	// putExecCtx — a pooled context must never pin a request's ctx tree.
	ctx   context.Context
	polls uint32 // pollCancel call counter (amortizes ctx.Err)
}

// attachCtx arms cancellation polling for one evaluation. Non-cancellable
// contexts (context.Background — the Query fast path) are dropped so every
// later poll is a nil check.
func (c *execCtx) attachCtx(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		c.ctx = ctx
	}
}

// pollCancel is the periodic cancellation check of the exec loops: called
// once per operator evaluation, it consults ctx.Err() only every 8th poll
// so deep plans pay almost nothing for cancellability. evalShard checks the
// context directly at shard entry, so every shard observes an expired
// deadline at least once regardless of plan size.
func (c *execCtx) pollCancel() error {
	if c.ctx == nil {
		return nil
	}
	c.polls++
	if c.polls&7 != 0 {
		return nil
	}
	return c.ctx.Err()
}

// cancelled reports the context error immediately (unamortized) — the
// per-shard entry check.
func (c *execCtx) cancelled() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// evalFrame holds one AND/OR operator's operand collections, recycled
// across evaluations so nested expressions allocate nothing steady-state.
type evalFrame struct {
	ops       []operand
	pair      [2]operand // a composite kid meeting the running result
	kids      [][]uint32
	kidsOwned []bool
}

var execCtxPool = sync.Pool{New: func() any { return new(execCtx) }}

func getExecCtx() *execCtx { return execCtxPool.Get().(*execCtx) }

// putExecCtx drops the request's context and any abandoned recording and
// returns the context to the pool. Frames and kernel scratch drop their
// references into index memory as they are released, so a pooled context
// never pins a swapped-out shard set.
func putExecCtx(c *execCtx) {
	c.ctx = nil
	c.polls = 0
	if c.rec != nil {
		// Error-path cleanup: executePlan harvests (and detaches) recordings
		// on success, so one still attached here was abandoned mid-query.
		putTraceRec(c.rec)
		c.rec = nil
	}
	execCtxPool.Put(c)
}

// getBuf returns an empty result buffer, reusing a recycled one when
// available. The zero-capacity result of a cold context is fine: appends
// grow it once and putBuf keeps the grown array.
func (c *execCtx) getBuf() []uint32 {
	if n := len(c.free); n > 0 {
		b := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return b[:0]
	}
	return nil
}

// putBuf recycles a buffer previously handed out by getBuf.
func (c *execCtx) putBuf(b []uint32) {
	if cap(b) > 0 {
		c.free = append(c.free, b)
	}
}

// window returns the context's BitProbe window, allocating it on first use.
func (c *execCtx) window() *sets.BitProbeWindow {
	if c.probe == nil {
		c.probe = new(sets.BitProbeWindow)
	}
	return c.probe
}

// frame returns a cleared evaluation frame from the free list.
func (c *execCtx) frame() *evalFrame {
	if n := len(c.pool); n > 0 {
		f := c.pool[n-1]
		c.pool[n-1] = nil
		c.pool = c.pool[:n-1]
		return f
	}
	return &evalFrame{}
}

// releaseFrame recycles every result buffer still owned by the frame,
// drops its operand references and returns it to the free list. It is the
// single cleanup path for success, empty-result shortcuts and errors alike.
func (c *execCtx) releaseFrame(f *evalFrame) {
	for i, b := range f.kids {
		if f.kidsOwned[i] {
			c.putBuf(b)
		}
	}
	clear(f.kids)
	clear(f.ops)
	f.pair = [2]operand{}
	f.ops = f.ops[:0]
	f.kids = f.kids[:0]
	f.kidsOwned = f.kidsOwned[:0]
	c.pool = append(c.pool, f)
}

// queryCtx is the per-query fan-out state: one slot per shard for the
// result, error and execution context of that shard's evaluation. Pooled so
// steady-state queries reuse the slot arrays.
type queryCtx struct {
	results [][]uint32
	owned   []bool
	errs    []error
	ctxs    []*execCtx
}

var queryCtxPool = sync.Pool{New: func() any { return new(queryCtx) }}

func getQueryCtx(shards int) *queryCtx {
	q := queryCtxPool.Get().(*queryCtx)
	if cap(q.results) < shards {
		q.results = make([][]uint32, shards)
		q.owned = make([]bool, shards)
		q.errs = make([]error, shards)
		q.ctxs = make([]*execCtx, shards)
	}
	q.results = q.results[:shards]
	q.owned = q.owned[:shards]
	q.errs = q.errs[:shards]
	q.ctxs = q.ctxs[:shards]
	return q
}

// putQueryCtx recycles every shard's result buffer into its own context,
// releases the contexts and returns the slot arrays to the pool.
func putQueryCtx(q *queryCtx) {
	for i := range q.results {
		if q.ctxs[i] != nil {
			if q.owned[i] {
				q.ctxs[i].putBuf(q.results[i])
			}
			putExecCtx(q.ctxs[i])
		}
		q.results[i] = nil
		q.owned[i] = false
		q.errs[i] = nil
		q.ctxs[i] = nil
	}
	queryCtxPool.Put(q)
}
