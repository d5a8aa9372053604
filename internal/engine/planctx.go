package engine

import (
	"sync"

	"fastintersect/internal/plan"
	"fastintersect/internal/segment"
)

// planStats aggregates a shard snapshot into the statistics the physical
// planner consumes: document frequencies summed across shards and the live
// document count. Shards hash-partition documents uniformly, so per-shard
// list sizes are proportional to the aggregates and ONE physical plan
// (operand order) serves every shard of a query; the kernel itself is
// re-priced per shard on the actual sizes (see exec.go).
type planStats struct {
	segs []*segment.Frozen
	docs int
}

// fill snapshots each shard's frozen segments and live-document count.
// Frozen segments are immutable (only their tombstone filters grow), so
// they stay safe to read after the per-shard locks are dropped — which is
// what lets TermLen sum df without re-locking per term. The active segments
// are deliberately excluded: they are bounded by the compaction threshold
// and would need the shard lock per term lookup.
func (ps *planStats) fill(shards []*shard) {
	ps.segs = ps.segs[:0]
	ps.docs = 0
	for _, s := range shards {
		s.mu.RLock()
		ps.segs = append(ps.segs, s.segs...)
		ps.docs += s.liveLocked()
		s.mu.RUnlock()
	}
}

func (ps *planStats) NumDocs() int { return ps.docs }

// TermLen is the planner's cardinality estimate for one term: its df summed
// over every frozen segment, so cost-based operand ordering stays honest
// under churn between merges. (Tombstoned postings are still counted — they
// are suppressed at query time, not purged, so they still cost kernel
// work.)
func (ps *planStats) TermLen(term string) int {
	total := 0
	for _, f := range ps.segs {
		total += f.DocFreq(term)
	}
	return total
}

// planCtx pairs one pooled physical plan with its statistics snapshot, so
// plan construction allocates nothing steady-state (the arenas inside
// plan.Plan and the segment snapshot grow once and are reused).
type planCtx struct {
	plan  plan.Plan
	stats planStats
	// actuals is the ExplainAnalyze rendering arena (one OpActual per plan
	// operator), pooled with the context like the plan's own arenas.
	actuals []plan.OpActual
}

var planCtxPool = sync.Pool{New: func() any { return new(planCtx) }}

func getPlanCtx() *planCtx { return planCtxPool.Get().(*planCtx) }

// putPlanCtx drops the segment references so a pooled plan context never
// pins a swapped-out shard set, then recycles it. Nil-safe: a plan-cache
// hit never acquires a context.
func putPlanCtx(pc *planCtx) {
	if pc == nil {
		return
	}
	clear(pc.stats.segs)
	pc.stats.segs = pc.stats.segs[:0]
	pc.stats.docs = 0
	planCtxPool.Put(pc)
}
