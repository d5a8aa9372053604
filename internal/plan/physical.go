package plan

import (
	"fmt"
	"strings"
)

// Stats is what the physical planner knows about an index: per-term
// cardinality and storage shape, and the universe size for selectivity
// estimates. The engine implements it by aggregating its shards, so one
// physical plan serves every shard of a query.
type Stats interface {
	// NumDocs is the number of live documents (0 if unknown; estimates then
	// degrade gracefully to min-based bounds).
	NumDocs() int
	// TermLen is the term's document frequency (0 for unknown terms).
	TermLen(term string) int
	// TermShape is the term's storage representation.
	TermShape(term string) Shape
}

// OpKind discriminates physical operators.
type OpKind uint8

const (
	// OpTerm fetches one posting list (decoding it if Decode is set).
	OpTerm OpKind = iota
	// OpAnd intersects its ordered term operands with Kernel, then its
	// composite kids ascending by estimated size, then subtracts its
	// negated kids.
	OpAnd
	// OpOr unions its kids with one k-way union (sets.UnionKInto).
	OpOr
)

// span references a range of p.idx — the arena holding every operator's
// child lists, so plans recycle without per-node slice allocations.
type span struct{ off, n int32 }

// Op is one physical operator. Operators are stored post-order in
// Plan.Ops; children always precede parents.
type Op struct {
	Kind   OpKind
	Kernel Kernel // OpAnd with ≥ 2 term operands: the chosen kernel
	Shape  Shape  // OpTerm: storage representation
	Decode bool   // OpTerm: stored list must be decoded (memoized) vs aliased
	Term   string // OpTerm
	// Rows is the operator's estimated output cardinality: the df for
	// OpTerm, a selectivity estimate for composites.
	Rows int
	// Cost is the operator's own estimated ns (children not included).
	Cost float64

	terms span // OpAnd: ordered OpTerm children (the kernel pushdown)
	kids  span // OpAnd: composite positive children; OpOr: all children
	negs  span // OpAnd: negated children (the subtree under each NOT)
}

// Plan is a pooled physical plan: a post-order operator arena plus the
// child-index arena. Build fills it without allocating once the backing
// slices have grown to a query's size, which keeps planning off the
// per-query allocation budget.
type Plan struct {
	// Canon is the canonical (normalized) query string the plan was built
	// from — the same string the result cache keys on.
	Canon string
	// Stored reports whether term operands are compressed stored lists
	// (invindex.StorageCompressed) rather than preprocessed raw lists.
	Stored bool
	// Policy the plan was built under.
	Policy Policy
	// Ops holds the operators post-order; the root is Ops[len(Ops)-1].
	Ops []Op

	idx []int32 // child-index arena, referenced by spans
	tmp []int32 // build-time child stack
	buf []int   // scratch sizes for kernel choice
	ops []Operand
}

// Root returns the root operator's index.
func (p *Plan) Root() int32 { return int32(len(p.Ops) - 1) }

// TermOps returns o's ordered term-operand indexes (OpAnd).
func (p *Plan) TermOps(o *Op) []int32 { return p.idx[o.terms.off : o.terms.off+o.terms.n] }

// KidOps returns o's composite child indexes (OpAnd positives, OpOr kids).
func (p *Plan) KidOps(o *Op) []int32 { return p.idx[o.kids.off : o.kids.off+o.kids.n] }

// NegOps returns o's negated child indexes (OpAnd).
func (p *Plan) NegOps(o *Op) []int32 { return p.idx[o.negs.off : o.negs.off+o.negs.n] }

// Reset clears the plan for reuse, keeping capacity.
func (p *Plan) Reset() {
	p.Canon = ""
	p.Ops = p.Ops[:0]
	p.idx = p.idx[:0]
	p.tmp = p.tmp[:0]
}

// Build lowers a normalized, bounded logical tree to a physical plan
// against the given index statistics: term operands of every conjunction
// are ordered per pol.Order, kernels chosen per pol.Kernels through the
// cost model, and stored terms get their decode-vs-probe decision. The
// plan is rebuilt in place (dst is reset first) and returned.
func Build(dst *Plan, n Node, canon string, st Stats, c *Costs, pol Policy, stored bool) *Plan {
	dst.Reset()
	dst.Canon = canon
	dst.Stored = stored
	dst.Policy = pol
	b := builder{p: dst, st: st, c: c, pol: pol, stored: stored}
	b.build(n)
	return dst
}

type builder struct {
	p      *Plan
	st     Stats
	c      *Costs
	pol    Policy
	stored bool
}

// emit appends op and returns its index.
func (b *builder) emit(op Op) int32 {
	b.p.Ops = append(b.p.Ops, op)
	return int32(len(b.p.Ops) - 1)
}

// seal copies the child indexes pushed since mark into the arena and
// returns their span.
func (b *builder) seal(mark int) span {
	s := span{off: int32(len(b.p.idx)), n: int32(len(b.p.tmp) - mark)}
	b.p.idx = append(b.p.idx, b.p.tmp[mark:]...)
	b.p.tmp = b.p.tmp[:mark]
	return s
}

func (b *builder) build(n Node) int32 {
	switch n := n.(type) {
	case Term:
		return b.buildTerm(n)
	case Or:
		return b.buildOr(n)
	case And:
		return b.buildAnd(n)
	case Not:
		// Unreachable for bounded trees: negations are lowered by buildAnd.
		return b.build(n.Kid)
	}
	panic(fmt.Sprintf("plan: unknown node %T", n))
}

func (b *builder) buildTerm(t Term) int32 {
	term := string(t)
	df := b.st.TermLen(term)
	shape := ShapeList
	if b.stored {
		shape = b.st.TermShape(term)
	}
	op := Op{Kind: OpTerm, Shape: shape, Term: term, Rows: df}
	if b.stored && shape != ShapeRawStored {
		// A compressed list referenced outside a kernel pushdown must be
		// materialized; raw stored lists alias their payload for free.
		op.Decode = true
		op.Cost = decodeCost(b.c, Operand{Len: df, Shape: shape})
	}
	return b.emit(op)
}

func (b *builder) buildOr(n Or) int32 {
	mark := len(b.p.tmp)
	total := 0
	for _, k := range n.Kids {
		ci := b.build(k)
		b.p.tmp = append(b.p.tmp, ci)
		total += b.p.Ops[ci].Rows
	}
	kids := b.seal(mark)
	rows := total
	if u := b.st.NumDocs(); u > 0 && rows > u {
		rows = u
	}
	op := Op{Kind: OpOr, Rows: rows, Cost: b.c.Scan * float64(total)}
	op.kids = kids
	return b.emit(op)
}

func (b *builder) buildAnd(n And) int32 {
	p := b.p
	termMark := len(p.tmp)
	// Term operands first: they form the kernel pushdown.
	for _, k := range n.Kids {
		if t, ok := k.(Term); ok {
			p.tmp = append(p.tmp, b.buildTerm(t))
		}
	}
	b.orderByRows(p.tmp[termMark:], b.pol.Order)
	terms := b.seal(termMark)

	kidMark := len(p.tmp)
	for _, k := range n.Kids {
		switch k.(type) {
		case Term, Not:
		default:
			p.tmp = append(p.tmp, b.build(k))
		}
	}
	if b.pol.Order == OrderCost {
		// Cheapest composite first: an empty kid short-circuits the rest.
		b.orderByRows(p.tmp[kidMark:], OrderCost)
	}
	kids := b.seal(kidMark)

	negMark := len(p.tmp)
	for _, k := range n.Kids {
		if nk, ok := k.(Not); ok {
			p.tmp = append(p.tmp, b.build(nk.Kid))
		}
	}
	negs := b.seal(negMark)

	op := Op{Kind: OpAnd, Kernel: KernelNone}
	op.terms, op.kids, op.negs = terms, kids, negs

	// Kernel choice and estimates over the ordered term operands.
	u := b.st.NumDocs()
	rows, haveRows := 0, false
	if terms.n > 0 {
		p.ops = p.ops[:0]
		p.buf = p.buf[:0]
		for _, ti := range p.TermOps(&op) {
			to := &p.Ops[ti]
			p.buf = append(p.buf, to.Rows)
			// The planner knows no per-term extent, so the universe stands in
			// as every operand's span; the engine re-prices per shard with the
			// real spans.
			p.ops = append(p.ops, Operand{Len: to.Rows, Shape: to.Shape, Span: u})
		}
		if terms.n >= 2 {
			if b.stored {
				op.Kernel = ChooseStored(b.c, b.pol.Kernels, p.ops)
				op.Cost = storedCost(b.c, op.Kernel, p.ops)
				// Inside the pushdown the strategy decides who decodes: the
				// probe side for the chains, everyone for DecodeAll, no one
				// for the all-compressed kernels.
				for j, ti := range p.TermOps(&op) {
					switch op.Kernel {
					case KernelFilterChain, KernelLookupProbe:
						p.Ops[ti].Decode = j == 0 && p.Ops[ti].Shape != ShapeRawStored
					case KernelDecodeAll:
						p.Ops[ti].Decode = p.Ops[ti].Shape != ShapeRawStored
					default:
						p.Ops[ti].Decode = false
					}
				}
			} else {
				op.Kernel = ChooseListKernel(b.c, b.pol.Kernels, p.buf, u)
				op.Cost = listKernelCost(b.c, op.Kernel, p.buf, u)
			}
		}
		rows, haveRows = estAnd(p.buf, u), true
	}
	for _, ki := range p.KidOps(&op) {
		kr := p.Ops[ki].Rows
		if !haveRows {
			rows, haveRows = kr, true
			continue
		}
		rows = shrink(rows, kr, u)
		op.Cost += b.c.Scan * float64(min32(rows, kr)+kr)
	}
	op.Rows = rows
	for _, ni := range p.NegOps(&op) {
		op.Cost += b.c.Scan * float64(rows+p.Ops[ni].Rows)
	}
	return b.emit(op)
}

// orderByRows sorts operand indexes by estimated cardinality in place — a
// stable insertion sort, since operand lists are small and the hot path
// must not allocate (a sort-func closure would).
func (b *builder) orderByRows(idxs []int32, ord Order) {
	ops := b.p.Ops
	desc := ord == OrderWorst // OrderCost and OrderDF both ascend
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0; j-- {
			before := ops[idxs[j]].Rows < ops[idxs[j-1]].Rows
			if desc {
				before = ops[idxs[j]].Rows > ops[idxs[j-1]].Rows
			}
			if !before {
				break
			}
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
}

// estAnd estimates a conjunction's cardinality from its operand sizes under
// independence — U·Π(nᵢ/U) — capped at the smallest operand.
func estAnd(sizes []int, u int) int {
	minN := sizes[0]
	for _, n := range sizes {
		if n < minN {
			minN = n
		}
	}
	if u <= 0 {
		return minN
	}
	est := float64(u)
	for _, n := range sizes {
		est *= float64(n) / float64(u)
	}
	if int(est) < minN {
		return int(est)
	}
	return minN
}

// shrink folds one more conjunct of size n into the running estimate est
// under independence, capped at min(est, n).
func shrink(est, n, u int) int {
	if n < est {
		est, n = n, est
	}
	if u <= 0 {
		return est
	}
	if r := int(float64(est) * float64(n) / float64(u)); r < est {
		return r
	}
	return est
}

func min32(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CostEstimate returns the plan's total estimated ns (the sum over all
// operators).
func (p *Plan) CostEstimate() float64 {
	var total float64
	for i := range p.Ops {
		total += p.Ops[i].Cost
	}
	return total
}

// Explain renders the physical plan as an indented operator tree: one line
// per operator with its kernel, ordered operands, storage shapes, and
// cardinality/cost estimates — the form fsiserve returns for explain=1 and
// fsi -explain prints.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for %s (storage=%s, est_cost=%s)\n",
		p.Canon, storageName(p.Stored), fmtCost(p.CostEstimate()))
	p.explainOp(&sb, p.Root(), "", "")
	return sb.String()
}

func storageName(stored bool) string {
	if stored {
		return "compressed"
	}
	return "raw"
}

func fmtCost(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func (p *Plan) explainOp(sb *strings.Builder, i int32, prefix, childPrefix string) {
	o := &p.Ops[i]
	sb.WriteString(prefix)
	switch o.Kind {
	case OpTerm:
		fmt.Fprintf(sb, "term %s (df=%d, %s", o.Term, o.Rows, o.Shape)
		if o.Decode {
			sb.WriteString(", decode")
		}
		sb.WriteString(")\n")
		return
	case OpAnd:
		sb.WriteString("AND")
		if o.Kernel != KernelNone {
			fmt.Fprintf(sb, " kernel=%s", o.Kernel)
		}
	case OpOr:
		sb.WriteString("OR merge")
	}
	fmt.Fprintf(sb, " est_rows=%d est_cost=%s\n", o.Rows, fmtCost(o.Cost))

	type child struct {
		idx int32
		neg bool
	}
	var kids []child
	for _, t := range p.TermOps(o) {
		kids = append(kids, child{t, false})
	}
	for _, k := range p.KidOps(o) {
		kids = append(kids, child{k, false})
	}
	for _, n := range p.NegOps(o) {
		kids = append(kids, child{n, true})
	}
	for j, k := range kids {
		last := j == len(kids)-1
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		pre := childPrefix + branch
		if k.neg {
			pre += "NOT "
		}
		p.explainOp(sb, k.idx, pre, childPrefix+cont)
	}
}
