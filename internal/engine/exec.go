package engine

import (
	"fmt"
	"time"

	"fastintersect/internal/bitseg"
	"fastintersect/internal/plan"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// Physical-plan execution against one segment of a shard's tier. The
// logical language, normalizer and cost model live in internal/plan; this
// file is the one interpreter that runs a plan.Plan inside a pooled
// execCtx, over frozen and active segments alike.
//
// Every operand is a sorted []uint32: a frozen segment's list, an
// active-segment list or an intermediate result a conjunction intersects
// with its composite kids. The evaluator intersects them itself with
// BitsegAnd over all operands at once, or pair by pair with BitProbe,
// Gallop or Merge. Kernel selection is delegated to the plan package: the
// plan fixes the operand order (built once per query from engine-aggregate
// statistics), each segment re-prices the conjunction on its actual
// operand sizes and spans through plan.ChooseStored, and the pairwise
// chain re-prices each pair on its own lengths. No execution path picks a
// kernel inline.

// source is the segment a plan is evaluated against: one frozen segment or
// the shard's active segment. Exactly one field is set.
type source struct {
	seg    *segment.Frozen
	active *segment.Mutable
}

// operand is one conjunction input: sorted docIDs and, for a frozen
// segment's list, the list itself — its span and its bitseg form.
// Active-segment lists and intermediate results carry no list, so they are
// priced with span 0, which never prices BitsegAnd: their bitmap form
// would be rebuilt on every query.
type operand struct {
	docs []uint32
	list *segment.List
}

// fetch returns term's posting list in src; its docs are empty when src
// holds none.
func fetch(src source, term string) operand {
	if src.seg == nil {
		return operand{docs: src.active.Postings(term)}
	}
	if l := src.seg.List(term); l != nil {
		return operand{docs: l.Docs(), list: l}
	}
	return operand{}
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
		return fetch(src, op.Term).docs, false, nil

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
// side. BitsegAnd runs over every operand at once; any other pick runs
// pairwise, straight away for a lone pair (a span prices only BitsegAnd,
// so the pick stands for the pair) and otherwise through the chain. The
// kernels run in their own functions, keeping this frame — on the stack of
// every query's evaluation — small; in a traced query each records its
// run under the kernel that ran.
func (e *Engine) intersect(c *execCtx, ops []operand) []uint32 {
	c.ops = c.ops[:0]
	for _, o := range ops {
		span := 0
		if o.list != nil {
			span = o.list.Span()
		}
		c.ops = append(c.ops, plan.Operand{Len: len(o.docs), Span: span})
	}
	k := plan.ChooseStored(e.costs, c.ops)
	switch {
	case k == plan.KernelBitsegAnd:
		return c.bitsegAnd(ops)
	case len(ops) == 2:
		return c.run(k, c.getBuf(), ops[0].docs, ops[1].docs)
	}
	return c.chain(e.costs, ops)
}

// intersectTerms intersects conjunction i's term operands ops (at least
// two, in plan order) under evalOp's ownership rules. In a frozen segment
// whose first two operands both hold at least T docIDs, their intersection
// comes from the pair cache (see paircache.go): a hit runs the rest of the
// conjunction on the cached list, which is read-only; a miss while the
// budget has room computes the pair on its own, admits it and runs the
// rest on it. Everything else — a miss without room included — intersects
// ops as if there were no cache.
func (e *Engine) intersectTerms(c *execCtx, src source, p *plan.Plan, i int32, ops []operand) ([]uint32, bool) {
	pc := e.pairs
	if src.seg == nil || len(ops[0].docs) < pc.minLen || len(ops[1].docs) < pc.minLen {
		return e.intersect(c, ops), true
	}
	ts := p.TermOps(&p.Ops[i])
	k := pairKey{seg: src.seg, a: p.Ops[ts[0]].Term, b: p.Ops[ts[1]].Term}
	if k.b < k.a {
		k.a, k.b = k.b, k.a
	}
	head, hit := pc.get(k)
	owned := false
	switch {
	case hit:
		if c.rec != nil {
			c.rec.ops[i].pairHits++
		}
	case pc.room():
		head, owned = e.intersect(c, ops[:2]), true
		pc.admit(k, head)
	default:
		return e.intersect(c, ops), true
	}
	if len(ops) == 2 || len(head) == 0 {
		return head, owned
	}
	// The rest re-prices with the pair's result in front; it carries no
	// list, so it never prices BitsegAnd.
	ops[1] = operand{docs: head}
	out := e.intersect(c, ops[1:])
	if owned {
		c.putBuf(head)
	}
	return out, true
}

// chain intersects ops pairwise from the probe side, ping-ponging between
// two context buffers. Each pair runs the kernel plan.ChooseStored picks on
// that pair's actual lengths (span 0: a pair never runs BitsegAnd), so a
// conjunction's balanced first pair probes and its skewed tail gallops.
func (c *execCtx) chain(costs *plan.Costs, ops []operand) []uint32 {
	cur := c.pair(costs, c.getBuf(), ops[0].docs, ops[1].docs)
	spare := c.getBuf()
	for _, o := range ops[2:] {
		if len(cur) == 0 {
			break
		}
		cur, spare = c.pair(costs, spare, cur, o.docs), cur[:0]
	}
	c.putBuf(spare)
	return cur
}

// pair appends a ∩ b to dst with the kernel plan.ChooseStored picks for
// their lengths.
func (c *execCtx) pair(costs *plan.Costs, dst, a, b []uint32) []uint32 {
	c.ops = append(c.ops[:0], plan.Operand{Len: len(a)}, plan.Operand{Len: len(b)})
	return c.run(plan.ChooseStored(costs, c.ops), dst, a, b)
}

// run appends a ∩ b to dst with pair kernel k: BitProbe, Gallop or Merge.
// A traced query records the run, its output rows and its time.
func (c *execCtx) run(k plan.Kernel, dst, a, b []uint32) []uint32 {
	var start time.Time
	if c.rec != nil {
		start = time.Now()
	}
	var out []uint32
	switch k {
	case plan.KernelBitProbe:
		out = sets.IntersectBitProbeInto(dst, a, b, c.window())
	case plan.KernelGallop:
		out = sets.IntersectGallopInto(dst, a, b)
	default:
		out = sets.IntersectInto(dst, a, b)
	}
	if c.rec != nil {
		c.rec.kernelRun(k, start, len(out)-len(dst))
	}
	return out
}

// bitsegAnd runs the k-way word kernel over the operands' bitseg forms,
// attaching each on its first use; a traced query records the run, the
// attaching included. The chooser prices BitsegAnd only when every operand
// is a frozen list.
func (c *execCtx) bitsegAnd(ops []operand) []uint32 {
	var start time.Time
	if c.rec != nil {
		start = time.Now()
	}
	for _, o := range ops {
		c.bits = append(c.bits, o.list.Bitseg())
	}
	out := bitseg.IntersectKInto(c.getBuf(), c.bits...)
	clear(c.bits)
	c.bits = c.bits[:0]
	if c.rec != nil {
		c.rec.kernelRun(plan.KernelBitsegAnd, start, len(out))
	}
	return out
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
		o := fetch(src, p.Ops[ti].Term)
		if len(o.docs) == 0 {
			recTerm(c, ti, 0)
			c.releaseFrame(f)
			return nil, false, nil // empty operand: whole conjunction is empty
		}
		recTerm(c, ti, len(o.docs))
		f.ops = append(f.ops, o)
	}
	var cur []uint32
	curOwned := false
	haveBase := false // distinguishes "no term operands" from an empty base intersection
	switch {
	case len(f.ops) >= 2:
		cur, curOwned = e.intersectTerms(c, src, p, i, f.ops)
		haveBase = true
	case len(f.ops) == 1:
		cur = f.ops[0].docs
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
		// chooser, both sides without a list (the pair kernels are
		// symmetric).
		f.pair[0], f.pair[1] = operand{docs: cur}, operand{docs: s}
		out := e.intersect(c, f.pair[:])
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
