package plan

import (
	"strings"
	"testing"
)

// fakeStats is a hand-set statistics source for planner tests.
type fakeStats struct {
	docs int
	lens map[string]int
}

func (f *fakeStats) NumDocs() int         { return f.docs }
func (f *fakeStats) TermLen(t string) int { return f.lens[t] }

func mustParse(t *testing.T, q string) Node {
	t.Helper()
	n, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return n
}

// rawOps describes raw operands of the given lengths over a shared span.
func rawOps(span int, lens ...int) []Operand {
	ops := make([]Operand, len(lens))
	for i, n := range lens {
		ops[i] = Operand{Len: n, Span: span}
	}
	return ops
}

// rawChoice is one chooser case over raw operands.
type rawChoice struct {
	name string
	ops  []Operand
	want Kernel
}

// checkRawChoices runs each case through the one chooser under the
// committed table.
func checkRawChoices(t *testing.T, cases []rawChoice) {
	t.Helper()
	c := DefaultCosts()
	for _, tc := range cases {
		if got := ChooseStored(c, tc.ops); got != tc.want {
			t.Errorf("%s: ChooseStored(%v) = %v, want %v", tc.name, tc.ops, got, tc.want)
		}
	}
}

// TestChooseListKernel pins the raw-list rules of the one chooser: BitProbe,
// Gallop or BitsegAnd under the list formulas, never BitsegAnd when an
// operand has span 0, and Merge only for an empty operand.
func TestChooseListKernel(t *testing.T) {
	checkRawChoices(t, []rawChoice{
		{"balanced", rawOps(0, 50_000, 60_000), KernelBitProbe},
		{"heavy-skew", rawOps(0, 10, 100_000), KernelGallop},
		{"empty-operand", rawOps(0, 0, 5_000), KernelMerge},
		// Dense over a known universe: the word-parallel tier wins.
		{"dense-span", rawOps(100_000, 50_000, 60_000), KernelBitsegAnd},
		// Sparse lists over the same universe pay full chunk ANDs: the
		// bitmap walk undercuts the linear merge, but not the bitmap probe,
		// which pays per element, not per chunk word (GroupScan, which was
		// cheaper here, is no longer a planner candidate).
		{"sparse-span", rawOps(100_000, 1_000, 1_200), KernelBitProbe},
		// Heavy skew: galloping beats even the bitmap walk.
		{"skew-span", rawOps(100_000, 10, 100_000), KernelGallop},
		{"skew-3way", rawOps(0, 10, 50_000, 100_000), KernelGallop},
		// Span 0 marks a list whose bitmaps would be rebuilt on every query
		// (an active-segment list, an intermediate result): never BitsegAnd,
		// even beside a list with a span.
		{"dense-no-span", rawOps(0, 50_000, 60_000), KernelBitProbe},
		{"dense-span-and-no-span", append(rawOps(100_000, 50_000), rawOps(0, 60_000)...), KernelBitProbe},
	})
}

// TestChoosePair pins pairwise composite intersections (two intermediate
// results, span 0): galloping wins once the size ratio covers its
// per-probe overhead, the bitmap probe below that.
func TestChoosePair(t *testing.T) {
	checkRawChoices(t, []rawChoice{
		{"pair-skew", rawOps(0, 5, 1_000_000), KernelGallop},
		{"pair-balanced", rawOps(0, 40_000, 50_000), KernelBitProbe},
	})
}

// TestChooseBitProbeGallopCrossover walks the size ratios
// BenchmarkIntersectBitProbeCrossover (internal/sets) times, 1 to 64 over a
// 600-element smaller list, under the committed table: the pair chooser
// must pick BitProbe on balanced pairs, Gallop on the most skewed, and
// switch exactly once, at the ratio the table implies. On a 2-vCPU x86-64
// VM the benchmark had BitProbe faster at ratio 8 and Gallop faster at 32
// in every run, the two within 8% of each other at 16, so the crossover
// lies inside the band the benchmark measures.
func TestChooseBitProbeGallopCrossover(t *testing.T) {
	// BitProbeElem·600·(1+r) against GallopProbe·600 (the search depth
	// stays under the reference until r = 16): 3.258·(1+12) < 44.44 <
	// 3.258·(1+13).
	const small, wantCross = 600, 13
	c := DefaultCosts()
	cross := 0
	for r := 1; r <= 64; r++ {
		got := ChooseStored(c, rawOps(0, small, small*r))
		switch {
		case got != KernelBitProbe && got != KernelGallop:
			t.Fatalf("ratio %d: chose %v, want BitProbe or Gallop", r, got)
		case got == KernelGallop && cross == 0:
			cross = r
		case got == KernelBitProbe && cross != 0:
			t.Fatalf("ratio %d: BitProbe again after Gallop from ratio %d", r, cross)
		}
	}
	if cross != wantCross {
		t.Fatalf("Gallop from ratio %d (0: never); want BitProbe below ratio %d and Gallop from there", cross, wantCross)
	}
}

func TestChooseStored(t *testing.T) {
	c := DefaultCosts()
	lowPair := []Operand{{Len: 1000, Shape: ShapeLowbits}, {Len: 1200, Shape: ShapeLowbits}}
	if got := ChooseStored(c, lowPair); got != KernelRGSPair {
		t.Errorf("lowbits pair = %v, want RGSPair", got)
	}
	gammas := []Operand{{Len: 500, Shape: ShapeGamma}, {Len: 5000, Shape: ShapeDelta}, {Len: 9000, Shape: ShapeGamma}}
	if got := ChooseStored(c, gammas); got != KernelLookupProbe {
		t.Errorf("all-γ/δ = %v, want LookupProbe", got)
	}
	mixed := []Operand{{Len: 500, Shape: ShapeRaw}, {Len: 5000, Shape: ShapeGamma}}
	// Decoding the γ list and merging costs more than probing its buckets.
	if got := ChooseStored(c, mixed); got != KernelFilterChain {
		t.Errorf("mixed = %v, want FilterChain", got)
	}
	// All-bitseg dense operands run the k-way word kernel in place.
	bsegs := []Operand{
		{Len: 50_000, Shape: ShapeBitseg, Span: 100_000},
		{Len: 60_000, Shape: ShapeBitseg, Span: 100_000},
	}
	if got := ChooseStored(c, bsegs); got != KernelBitsegAnd {
		t.Errorf("dense bitseg pair = %v, want BitsegAnd", got)
	}
	// Without a span the bitmap strategy is never considered.
	noSpan := []Operand{{Len: 50_000, Shape: ShapeBitseg}, {Len: 60_000, Shape: ShapeBitseg}}
	if got := ChooseStored(c, noSpan); got == KernelBitsegAnd {
		t.Error("span-less bitseg operands chose BitsegAnd")
	}
}

// termOrder extracts the term names of the root conjunction in plan order.
func termOrder(p *Plan) []string {
	root := &p.Ops[p.Root()]
	var out []string
	for _, ti := range p.TermOps(root) {
		out = append(out, p.Ops[ti].Term)
	}
	return out
}

func TestBuildOrdering(t *testing.T) {
	st := &fakeStats{docs: 100_000, lens: map[string]int{"a": 1000, "b": 10, "c": 100}}
	n := mustParse(t, "a AND b AND c")
	var p Plan
	Build(&p, n, n.String(), st, DefaultCosts())
	if got := termOrder(&p); got[0] != "b" || got[1] != "c" || got[2] != "a" {
		t.Errorf("term order = %v, want [b c a]", got)
	}
}

func TestBuildEstimates(t *testing.T) {
	st := &fakeStats{docs: 10_000, lens: map[string]int{"a": 1000, "b": 100}}
	n := mustParse(t, "a AND b")
	var p Plan
	Build(&p, n, n.String(), st, DefaultCosts())
	root := &p.Ops[p.Root()]
	// Independence: 10000 · (1000/10000) · (100/10000) = 10.
	if root.Rows != 10 {
		t.Errorf("AND est_rows = %d, want 10", root.Rows)
	}
	n = mustParse(t, "a OR b")
	Build(&p, n, n.String(), st, DefaultCosts())
	if root := &p.Ops[p.Root()]; root.Rows != 1100 {
		t.Errorf("OR est_rows = %d, want 1100", root.Rows)
	}
}

func TestExplain(t *testing.T) {
	st := &fakeStats{docs: 100_000, lens: map[string]int{"a": 50, "b": 40_000, "c": 100, "d": 60}}
	n := mustParse(t, "a AND b AND (c OR d) AND NOT c")
	var p Plan
	Build(&p, n, n.String(), st, DefaultCosts())
	out := p.Explain()
	for _, want := range []string{
		"plan for", "AND kernel=", "OR merge", "NOT ",
		"term a (df=50)", "term b (df=40000)", "est_rows=", "est_cost=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q in:\n%s", want, out)
		}
	}
}

// TestBuildAllocs pins the planner's hot-path contract: once a pooled plan
// has grown to a query's size, rebuilding it allocates nothing — plan
// construction rides the per-query allocation budget for free.
func TestBuildAllocs(t *testing.T) {
	st := &fakeStats{docs: 100_000, lens: map[string]int{
		"a": 1000, "b": 10, "c": 100, "d": 40_000, "e": 7,
	}}
	n := mustParse(t, "a AND b AND (c OR d OR (a AND e)) AND NOT e")
	key := n.String()
	c := DefaultCosts()
	var p Plan
	Build(&p, n, key, st, c) // warm the arenas
	allocs := testing.AllocsPerRun(100, func() {
		Build(&p, n, key, st, c)
	})
	if allocs != 0 {
		t.Errorf("Build allocates %.1f times per op, want 0", allocs)
	}
}
