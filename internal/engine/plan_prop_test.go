package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

// The planner property test: random AND/OR/NOT trees over random corpora,
// driven through the physical planner under every shard shape,
// order/kernel policy and with/without delta-segment churn, checked against
// a naive per-document reference evaluator. This is the end-to-end guard
// that cost-based planning is a pure optimization: no choice of kernel or
// operand order may change results.

// propCorpus is a randomized corpus with an independent membership oracle.
type propCorpus struct {
	numDocs uint32
	terms   []string
	has     map[uint32]map[string]bool // doc → term set (live docs only)
}

// genPropCorpus draws term probabilities spanning four orders of magnitude
// so the planner sees dense, sparse and empty-ish lists (hitting every
// stored encoding and both sides of every kernel crossover).
func genPropCorpus(rng *rand.Rand, numDocs uint32, numTerms int) *propCorpus {
	c := &propCorpus{numDocs: numDocs, has: map[uint32]map[string]bool{}}
	probs := make([]float64, numTerms)
	for i := range probs {
		c.terms = append(c.terms, fmt.Sprintf("t%d", i))
		probs[i] = []float64{0.9, 0.3, 0.05, 0.005}[i%4] * (0.5 + rng.Float64())
	}
	for d := uint32(0); d < numDocs; d++ {
		doc := map[string]bool{}
		for i, term := range c.terms {
			if rng.Float64() < probs[i] {
				doc[term] = true
			}
		}
		if len(doc) == 0 {
			doc[c.terms[rng.Intn(len(c.terms))]] = true
		}
		c.has[d] = doc
	}
	return c
}

// genTree produces a random bounded query: NOT only ever appears as a
// direct operand of a conjunction that has a positive operand.
func genTree(rng *rand.Rand, c *propCorpus, depth int) string {
	term := func() string { return c.terms[rng.Intn(len(c.terms))] }
	if depth <= 0 || rng.Float64() < 0.35 {
		return term()
	}
	kids := make([]string, 2+rng.Intn(2))
	for i := range kids {
		kids[i] = genTree(rng, c, depth-1)
	}
	if rng.Float64() < 0.55 {
		q := strings.Join(kids, " AND ")
		for rng.Float64() < 0.3 {
			q += " AND NOT " + term()
		}
		return "(" + q + ")"
	}
	return "(" + strings.Join(kids, " OR ") + ")"
}

// refQuery evaluates q per document against the oracle.
func (c *propCorpus) refQuery(t *testing.T, q string) []uint32 {
	t.Helper()
	n, err := plan.Parse(q)
	if err != nil {
		t.Fatalf("reference Parse(%q): %v", q, err)
	}
	var eval func(n plan.Node, doc map[string]bool) bool
	eval = func(n plan.Node, doc map[string]bool) bool {
		switch n := n.(type) {
		case plan.Term:
			return doc[string(n)]
		case plan.Not:
			return !eval(n.Kid, doc)
		case plan.And:
			for _, k := range n.Kids {
				if !eval(k, doc) {
					return false
				}
			}
			return true
		case plan.Or:
			for _, k := range n.Kids {
				if eval(k, doc) {
					return true
				}
			}
			return false
		}
		return false
	}
	var out []uint32
	for d := uint32(0); d < c.numDocs; d++ {
		if doc, live := c.has[d]; live && eval(n, doc) {
			out = append(out, d)
		}
	}
	return out
}

// install builds an engine over the corpus.
func (c *propCorpus) install(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	b := e.NewBuilder()
	for d := uint32(0); d < c.numDocs; d++ {
		var terms []string
		for term := range c.has[d] {
			terms = append(terms, term)
		}
		if err := b.Add(d, terms); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	return e
}

// churn mutates both the engine and the oracle: some documents get fresh
// term sets (delta wins over the base copy), some die (tombstones), some
// brand-new ones appear — so queries traverse base, delta and tombstone
// paths at once.
func (c *propCorpus) churn(t *testing.T, rng *rand.Rand, e *Engine) {
	t.Helper()
	for i := 0; i < 60; i++ {
		d := uint32(rng.Intn(int(c.numDocs) + 40))
		switch {
		case rng.Float64() < 0.3:
			if _, err := e.DeleteDocument(d); err != nil {
				t.Fatal(err)
			}
			delete(c.has, d)
		default:
			doc := map[string]bool{}
			for len(doc) == 0 {
				for _, term := range c.terms {
					if rng.Float64() < 0.2 {
						doc[term] = true
					}
				}
			}
			terms := make([]string, 0, len(doc))
			for term := range doc {
				terms = append(terms, term)
			}
			if err := e.AddDocument(d, terms); err != nil {
				t.Fatal(err)
			}
			c.has[d] = doc
			if d >= c.numDocs {
				c.numDocs = d + 1
			}
		}
	}
}

func TestPlanPropertyRandomTrees(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		corpus := genPropCorpus(rng, 1500+uint32(rng.Intn(1500)), 12)
		queries := make([]string, 24)
		for i := range queries {
			queries[i] = genTree(rng, corpus, 3)
		}
		for _, shards := range []int{1, 3} {
			for _, withDelta := range []bool{false, true} {
				// The oracle mutates with the engine, so each
				// (engine, delta) pair gets its own corpus copy.
				cc := corpus.clone()
				e := cc.install(t, Config{Shards: shards})
				if withDelta {
					cc.churn(t, rng, e)
				}
				for _, q := range queries {
					want := cc.refQuery(t, q)
					res, err := e.Query(q)
					if err != nil {
						t.Fatalf("trial=%d shards=%d delta=%v: Query(%q): %v",
							trial, shards, withDelta, q, err)
					}
					if !sets.Equal(res.Docs, want) {
						t.Fatalf("trial=%d shards=%d delta=%v: Query(%q) = %d docs, want %d",
							trial, shards, withDelta, q, len(res.Docs), len(want))
					}
				}
			}
		}
	}
}

func (c *propCorpus) clone() *propCorpus {
	cc := &propCorpus{numDocs: c.numDocs, terms: c.terms, has: make(map[uint32]map[string]bool, len(c.has))}
	for d, doc := range c.has {
		nd := make(map[string]bool, len(doc))
		for term := range doc {
			nd[term] = true
		}
		cc.has[d] = nd
	}
	return cc
}

// TestQueryBatch checks batch execution against individual queries: shared
// canonical forms collapse to one result, parse errors stay positional, and
// every batch result matches its Query twin.
func TestQueryBatch(t *testing.T) {
	const numDocs = 10_000
	t.Run("raw", func(t *testing.T) {
		e := buildTestEngine(t, Config{Shards: 3, CacheSize: 64}, numDocs)
		queries := []string{
			"m2 AND m3",
			"m3 AND m2", // same canonical form as above
			"m5 OR (m2 AND m7)",
			"NOT m2", // parse error: unbounded
			"all AND NOT m2",
			"m2 AND m3", // literal duplicate
		}
		batch := e.QueryBatch(queries)
		if len(batch) != len(queries) {
			t.Fatalf("QueryBatch returned %d results for %d queries", len(batch), len(queries))
		}
		for i, q := range queries {
			want, wantErr := e.Query(q)
			got := batch[i]
			if (wantErr == nil) != (got.Err == nil) {
				t.Fatalf("query %d %q: batch err %v, Query err %v", i, q, got.Err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !sets.Equal(got.Result.Docs, want.Docs) {
				t.Errorf("query %d %q: batch %d docs, Query %d docs", i, q, len(got.Result.Docs), len(want.Docs))
			}
		}
		// Commuted conjunctions share one canonical form — and one result.
		if batch[0].Result != batch[1].Result || batch[0].Result != batch[5].Result {
			t.Error("queries sharing a canonical form did not share one batch result")
		}
	})
}

// TestQueryBatchLargeMemo runs one single-shard batch touching 96 distinct
// terms, each referenced outside a kernel pushdown, through one shared
// execution context: every query must return exactly its term's list.
func TestQueryBatchLargeMemo(t *testing.T) {
	const terms = 96
	e := New(Config{Shards: 1})
	b := e.NewBuilder()
	want := make(map[string][]uint32, terms)
	for ti := 0; ti < terms; ti++ {
		term := fmt.Sprintf("w%03d", ti)
		docs := make([]uint32, 0, 100+ti)
		for d := uint32(0); d < uint32(100+ti); d++ {
			docs = append(docs, d*uint32(ti+2))
		}
		want[term] = docs
		if err := b.AddPosting(term, docs); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	queries := make([]string, 0, terms)
	for ti := 0; ti < terms; ti++ {
		// OR of a term with itself under different spellings references
		// the term outside a kernel pushdown.
		queries = append(queries, fmt.Sprintf("w%03d OR (w%03d AND w%03d)", ti, ti, ti))
	}
	for _, br := range e.QueryBatch(queries) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		term := br.Result.Normalized
		if !sets.Equal(br.Result.Docs, want[term]) {
			t.Fatalf("term %s: %d docs, want %d", term, len(br.Result.Docs), len(want[term]))
		}
	}
}

// TestQueryBatchNotBuilt pins the per-query error shape before Install.
func TestQueryBatchNotBuilt(t *testing.T) {
	e := New(Config{})
	batch := e.QueryBatch([]string{"a", "bad ) query"})
	if batch[0].Err != ErrNotBuilt {
		t.Errorf("batch[0].Err = %v, want ErrNotBuilt", batch[0].Err)
	}
	if batch[1].Err == nil {
		t.Error("batch[1] parse error lost")
	}
}

// TestExplainEngine checks the engine surface: the rendering names the
// executed kernel, reflects the df-ordered operands, and cache hits still
// explain (rebuilt against current statistics).
func TestExplainEngine(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 16}, 10_000)
	res, expl, err := e.Explain("m2 AND rare AND NOT m3")
	if err != nil {
		t.Fatal(err)
	}
	want := refEval(10_000, func(d uint32) bool { return d%2 == 0 && d%97 == 0 && d%3 != 0 })
	if !sets.Equal(res.Docs, want) {
		t.Fatalf("Explain result %d docs, want %d", len(res.Docs), len(want))
	}
	for _, frag := range []string{"AND kernel=", "term rare", "term m2", "NOT term m3"} {
		if !strings.Contains(expl, frag) {
			t.Errorf("explain missing %q:\n%s", frag, expl)
		}
	}
	// rare (df≈103) must be ordered before m2 (df=5000).
	if strings.Index(expl, "term rare") > strings.Index(expl, "term m2") {
		t.Errorf("operands not cost-ordered:\n%s", expl)
	}
	res2, expl2, err := e.Explain("m2 AND rare AND NOT m3")
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("second Explain not served from cache")
	}
	if expl2 == "" {
		t.Error("cache hit suppressed the plan rendering")
	}
}
