package plan

import (
	"fmt"
	"strings"
)

// OpActual is what actually happened at one plan operator during an
// executed query, indexed parallel to Plan.Ops. The engine fills one per
// operator while evaluating a traced query; multi-shard executions sum the
// shards. ExplainAnalyze renders it beside the estimates in Op.Rows and
// Op.Cost, which shows where the cost model and the execution disagree.
type OpActual struct {
	// Execs is how many times the operator ran (once per shard it was
	// evaluated on; 0 if a short-circuit skipped it).
	Execs int64
	// Rows is the total output cardinality across executions. For term
	// operands consumed inside an AND kernel pushdown this is the operand's
	// input length (the kernel never materializes per-term output).
	Rows int64
	// Ns is the total wall time across executions, inclusive of children.
	// Term operands fetched inside a parent's evaluation record 0 — their
	// time is accounted to the parent.
	Ns int64
	// PairHits is how many of an AND's executions took its head pair's
	// intersection from the engine's pair cache, running no kernel for it.
	PairHits int64
}

// ExplainAnalyze renders the executed plan like Explain, with each
// operator's measured rows and time alongside the estimates. actuals must
// be indexed parallel to p.Ops (the engine's trace arena); operators the
// execution never reached render as "(not executed)". Reported times are
// exclusive: each operator's span minus its children's, clamped at zero,
// so the per-operator costs sum to roughly the plan total and compare
// directly against Op.Cost.
func (p *Plan) ExplainAnalyze(actuals []OpActual) string {
	var sb strings.Builder
	var totalNs int64
	for i := range actuals {
		a := &actuals[i]
		totalNs += a.Ns - p.childNs(int32(i), actuals)
	}
	fmt.Fprintf(&sb, "plan for %s (est_cost=%s, act_time=%s)\n",
		p.Canon, fmtCost(p.CostEstimate()), fmtCost(float64(totalNs)))
	p.analyzeOp(&sb, p.Root(), "", "", actuals)
	return sb.String()
}

// childNs sums the inclusive spans of i's children (term operands record 0
// themselves, so only composite kids and negations contribute).
func (p *Plan) childNs(i int32, actuals []OpActual) int64 {
	o := &p.Ops[i]
	var ns int64
	for _, t := range p.TermOps(o) {
		ns += actuals[t].Ns
	}
	for _, k := range p.KidOps(o) {
		ns += actuals[k].Ns
	}
	for _, n := range p.NegOps(o) {
		ns += actuals[n].Ns
	}
	return ns
}

func (p *Plan) analyzeOp(sb *strings.Builder, i int32, prefix, childPrefix string, actuals []OpActual) {
	o := &p.Ops[i]
	a := &actuals[i]
	sb.WriteString(prefix)
	if o.Kind == OpTerm {
		fmt.Fprintf(sb, "term %s (df=%d)", o.Term, o.Rows)
		writeActuals(sb, o, a, p.childNs(i, actuals))
		sb.WriteString("\n")
		return
	}
	switch o.Kind {
	case OpAnd:
		sb.WriteString("AND")
		if o.Kernel != KernelNone {
			fmt.Fprintf(sb, " kernel=%s", o.Kernel)
		}
	case OpOr:
		sb.WriteString("OR merge")
	}
	fmt.Fprintf(sb, " est_rows=%d est_cost=%s", o.Rows, fmtCost(o.Cost))
	writeActuals(sb, o, a, p.childNs(i, actuals))
	sb.WriteString("\n")

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
		p.analyzeOp(sb, k.idx, pre, childPrefix+cont, actuals)
	}
}

// writeActuals appends the measured half of one operator line. rows are
// averaged per execution so a 4-shard run reads on the same scale as the
// single-plan estimate; the exclusive time is the operator's own span.
func writeActuals(sb *strings.Builder, o *Op, a *OpActual, childNs int64) {
	if a.Execs == 0 {
		sb.WriteString(" (not executed)")
		return
	}
	own := a.Ns - childNs
	if own < 0 {
		own = 0
	}
	fmt.Fprintf(sb, " | act_rows=%d", a.Rows)
	if o.Kind != OpTerm || a.Ns > 0 {
		fmt.Fprintf(sb, " act_time=%s", fmtCost(float64(own)))
	}
	if a.Execs > 1 {
		fmt.Fprintf(sb, " execs=%d", a.Execs)
	}
	if a.PairHits > 0 {
		fmt.Fprintf(sb, " pair_cache_hits=%d", a.PairHits)
	}
}
