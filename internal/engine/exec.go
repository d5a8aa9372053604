package engine

import (
	"fmt"
	"time"

	"fastintersect/internal/compress"
	"fastintersect/internal/plan"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// Physical-plan execution against one segment of a shard's tier. The
// logical language, normalizer and cost model live in internal/plan; this
// file is the one interpreter that runs a plan.Plan inside a pooled
// execCtx, over frozen and active segments alike.
//
// Every operand is an EncRaw *compress.Stored: a frozen segment hands out
// its stored lists, and the active segment's sorted lists — like the
// intermediate results a conjunction intersects with its composite kids —
// are wrapped as views drawn from the context's arena. Kernel selection is
// delegated to the plan package: the plan fixes the operand order (built
// once per query from engine-aggregate statistics), and each segment
// re-prices the kernel on its actual operand sizes and spans through
// plan.ChooseStored. No execution path picks a kernel inline.

// source is the segment a plan is evaluated against: one frozen segment or
// the shard's active segment. Exactly one field is set.
type source struct {
	seg    *segment.Frozen
	active *segment.Mutable
}

// operand returns term's posting list in src, or nil when src holds none.
// Active-segment lists come back as arena views, valid until the context's
// next resetViews.
func (c *execCtx) operand(src source, term string) *compress.Stored {
	if src.seg != nil {
		return src.seg.List(term)
	}
	if l := src.active.Postings(term); len(l) > 0 {
		return c.view(l)
	}
	return nil
}

// evalOp evaluates physical operator i of p against one segment, returning
// sorted docIDs. All transient memory comes from c; the returned slice
// either aliases segment memory (owned = false; read-only) or is backed by
// a context buffer (owned = true; the caller
// recycles it with c.putBuf once consumed). Either way it is only valid
// until the context is released.
//
// When the query is traced (c.rec non-nil) each evaluation also records
// the operator's execution count, output rows and inclusive wall time;
// ExplainAnalyze derives exclusive times by subtracting children at render
// time. Untraced queries take the first branch — a nil check per operator.
//
// Each evaluation also polls the request context (pollCancel): operators
// are the engine's unit of work between kernel runs, so a deadline
// that expires mid-shard aborts before the next kernel starts rather than
// after the whole shard finishes.
func (e *Engine) evalOp(c *execCtx, src source, p *plan.Plan, i int32) ([]uint32, bool, error) {
	if err := c.pollCancel(); err != nil {
		return nil, false, err
	}
	if c.rec == nil {
		return e.evalOpInner(c, src, p, i)
	}
	start := time.Now()
	docs, owned, err := e.evalOpInner(c, src, p, i)
	a := &c.rec.ops[i]
	a.execs++
	a.rows += int64(len(docs))
	a.ns += time.Since(start).Nanoseconds()
	return docs, owned, err
}

func (e *Engine) evalOpInner(c *execCtx, src source, p *plan.Plan, i int32) (docs []uint32, owned bool, err error) {
	op := &p.Ops[i]
	switch op.Kind {
	case plan.OpTerm:
		s := c.operand(src, op.Term)
		if s == nil {
			return nil, false, nil
		}
		return s.Decode(), false, nil

	case plan.OpOr:
		f := c.frame()
		for _, ki := range p.KidOps(op) {
			s, kidOwned, err := e.evalOp(c, src, p, ki)
			if err != nil {
				c.releaseFrame(f)
				return nil, false, err
			}
			f.kids = append(f.kids, s)
			f.kidsOwned = append(f.kidsOwned, kidOwned)
		}
		out := sets.UnionKInto(c.getBuf(), f.kids...)
		c.releaseFrame(f)
		return out, true, nil

	case plan.OpAnd:
		return e.evalAndOp(c, src, p, i)
	}
	return nil, false, fmt.Errorf("engine: unknown plan op kind %d", op.Kind)
}

// recTerm records a term operand fetched inside a conjunction pushdown:
// the kernel consumes the list without materializing per-term output, so
// the recorded rows are the operand's input length and its time (one map
// lookup) is accounted to the parent (ns stays 0).
func recTerm(c *execCtx, ti int32, n int) {
	if c.rec == nil {
		return
	}
	a := &c.rec.ops[ti]
	a.execs++
	a.rows += int64(n)
}

// intersect runs the kernel plan.ChooseStored picks for ops on their actual
// lengths and spans, into a fresh context buffer. ops[0] is the probe
// side. A traced conjunction (rec non-nil) records the kernel that ran and
// the price it was chosen at.
func (e *Engine) intersect(c *execCtx, pol plan.KernelPolicy, rec *opAcc, ops []*compress.Stored) []uint32 {
	c.ops = c.ops[:0]
	for _, s := range ops {
		c.ops = append(c.ops, s.Operand())
	}
	costs := e.planCosts()
	strat := plan.ChooseStored(costs, pol, c.ops)
	if rec != nil {
		rec.ranKernel(strat, plan.PriceStored(costs, strat, c.ops))
	}
	return compress.IntersectStoredStrategy(c.getBuf(), strat, ops...)
}

// evalAndOp evaluates one conjunction operator under evalOp's ownership
// rules. The plan supplies the operand order; the kernel is re-priced on
// the segment's actual sizes.
func (e *Engine) evalAndOp(c *execCtx, src source, p *plan.Plan, i int32) ([]uint32, bool, error) {
	op := &p.Ops[i]
	f := c.frame()
	for _, ti := range p.TermOps(op) {
		// A wide conjunction fetches many operands inside one operator —
		// poll between them too.
		if err := c.pollCancel(); err != nil {
			c.releaseFrame(f)
			return nil, false, err
		}
		s := c.operand(src, p.Ops[ti].Term)
		if s == nil || s.Len() == 0 {
			recTerm(c, ti, 0)
			c.releaseFrame(f)
			return nil, false, nil // empty operand: whole conjunction is empty
		}
		recTerm(c, ti, s.Len())
		f.stored = append(f.stored, s)
	}
	var cur []uint32
	curOwned := false
	haveBase := false // distinguishes "no term operands" from an empty base intersection
	switch {
	case len(f.stored) >= 2:
		var rec *opAcc
		if c.rec != nil {
			rec = &c.rec.ops[i]
		}
		cur = e.intersect(c, p.Policy.Kernels, rec, f.stored)
		curOwned = true
		haveBase = true
	case len(f.stored) == 1:
		cur = f.stored[0].Decode()
		haveBase = true
	}
	if haveBase && len(cur) == 0 {
		// The term conjunction is already empty; ANDing anything else in
		// cannot resurrect it — the composite kids are never evaluated.
		if curOwned {
			c.putBuf(cur)
		}
		c.releaseFrame(f)
		return nil, false, nil
	}
	for _, ki := range p.KidOps(op) {
		s, owned, err := e.evalOp(c, src, p, ki)
		if err != nil {
			if curOwned {
				c.putBuf(cur)
			}
			c.releaseFrame(f)
			return nil, false, err
		}
		if len(s) == 0 {
			if owned {
				c.putBuf(s)
			}
			if curOwned {
				c.putBuf(cur)
			}
			c.releaseFrame(f)
			return nil, false, nil
		}
		if !haveBase {
			cur, curOwned, haveBase = s, owned, true
			continue
		}
		// A composite operand meets the running result through the same
		// chooser, both sides as views (the pair kernels are symmetric).
		f.pair[0], f.pair[1] = c.view(cur), c.view(s)
		out := e.intersect(c, p.Policy.Kernels, nil, f.pair[:])
		if curOwned {
			c.putBuf(cur)
		}
		if owned {
			c.putBuf(s)
		}
		cur = out
		curOwned = true
		if len(cur) == 0 {
			c.putBuf(cur)
			c.releaseFrame(f)
			return nil, false, nil
		}
	}
	// cur is non-nil here: plan.Bounded guarantees at least one positive
	// operand, and empty positives short-circuited above.
	for _, ni := range p.NegOps(op) {
		if len(cur) == 0 {
			break
		}
		s, owned, err := e.evalOp(c, src, p, ni)
		if err != nil {
			if curOwned {
				c.putBuf(cur)
			}
			c.releaseFrame(f)
			return nil, false, err
		}
		if len(s) > 0 {
			out := sets.DifferenceInto(c.getBuf(), cur, s)
			if curOwned {
				c.putBuf(cur)
			}
			cur = out
			curOwned = true
		}
		if owned {
			c.putBuf(s)
		}
	}
	c.releaseFrame(f)
	return cur, curOwned, nil
}
