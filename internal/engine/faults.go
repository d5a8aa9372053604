package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fastintersect/internal/plan"
)

// Fault injection and the shard-evaluation safety barrier.
//
// FaultPlan is the config-gated hook the robustness tests use to make shard
// evaluation deterministically slow, failing or panicking: the engine's and
// fsiserve's cancellation and deadline tests inject latency so a request
// expires mid-query, and the panic-barrier tests inject errors and panics
// to drive the abort paths. Production engines leave Config.Faults nil and
// pay one pointer check per shard evaluation.
//
// evalShard is the single entry point every execution path (Query and its
// count, explain and analyze forms, QueryBatch) uses to evaluate one shard:
// it applies the fault plan, checks the request context at shard entry,
// and converts a panic into a query error instead of killing the process.
// The recover barrier runs after evalSegments' own deferred unlocks, so a
// panicking evaluation releases its shard lock normally; buffers parked in
// un-released frames are abandoned to the GC (never recycled), and so are
// the BitProbe window and BitsegAnd's operand scratch, so a context —
// pooled again, or evaluating a batch's next query — can not be corrupted
// by an abandoned evaluation.

// ErrInjected is the error produced by FaultPlan.ErrEvery injections.
var ErrInjected = errors.New("engine: injected fault")

// FaultPlan injects deterministic faults into shard evaluation. All
// injections apply before the evaluation proper, and "every Nth" counts
// affected evaluations process-wide (one shared atomic), so concurrent
// queries see an exact injection rate.
type FaultPlan struct {
	// Shard restricts injection to one shard index; -1 (or any negative
	// value) affects every shard.
	Shard int
	// Delay is added to every affected shard evaluation. The sleep is
	// cancellable: an expired request context cuts it short and the
	// evaluation returns the context's error.
	Delay time.Duration
	// ErrEvery makes every Nth affected evaluation fail with ErrInjected
	// (0 = never).
	ErrEvery int
	// PanicEvery makes every Nth affected evaluation panic (0 = never) —
	// exercised by the panic-barrier tests; the panic is converted into a
	// query error by evalShard.
	PanicEvery int
}

// injectFault applies the configured fault plan to one shard evaluation.
func (e *Engine) injectFault(ctx context.Context, shardIdx int) error {
	f := e.cfg.Faults
	if f == nil {
		return nil
	}
	if f.Shard >= 0 && f.Shard != shardIdx {
		return nil
	}
	n := e.faultCtr.Add(1)
	if f.PanicEvery > 0 && n%uint64(f.PanicEvery) == 0 {
		panic(fmt.Sprintf("engine: injected panic (evaluation %d, shard %d)", n, shardIdx))
	}
	if f.ErrEvery > 0 && n%uint64(f.ErrEvery) == 0 {
		return ErrInjected
	}
	if f.Delay > 0 {
		return sleepCtx(ctx, f.Delay)
	}
	return nil
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// evalShard evaluates one shard under the safety barrier: fault injection,
// the per-shard cancellation check, and panic-to-error conversion. Every
// execution path routes through it, so a panicking kernel (or injected
// panic) fails the one query that hit it — with the worker slot released
// and the pooled context recycled by the caller's normal error path — and
// never takes the process down.
func (e *Engine) evalShard(c *execCtx, s *shard, shardIdx int, p *plan.Plan) (docs []uint32, owned bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.probe = nil // a kernel run cut short may have left bits set
			clear(c.bits)
			c.bits = c.bits[:0]
			docs, owned = nil, false
			err = fmt.Errorf("engine: shard %d: panic during evaluation: %v", shardIdx, r)
		}
	}()
	if err := c.cancelled(); err != nil {
		return nil, false, err
	}
	if err := e.injectFault(c.ctx, shardIdx); err != nil {
		return nil, false, err
	}
	return e.evalSegments(c, s, p)
}
