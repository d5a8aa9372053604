package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
)

// query is one boolean query in the shape the repository's query streams
// render: a conjunction of terms, optionally minus one term and optionally
// unioned with one term. Terms are corpus ranks (term t is named "t<t>").
type query struct {
	and  []int
	not  int // -1 when absent
	or   int // -1 when absent
	text string
}

// render spells q the way workload.QueryStream does, so the engine sees the
// same surface syntax fsiserve's load generator sends.
func (q *query) render() string {
	parts := make([]string, len(q.and))
	for i, t := range q.and {
		parts[i] = workload.TermName(t)
	}
	s := strings.Join(parts, " AND ")
	if q.not >= 0 {
		s += " AND NOT " + workload.TermName(q.not)
	}
	if q.or >= 0 {
		s = "(" + s + ") OR " + workload.TermName(q.or)
	}
	return s
}

// parseQuery is the inverse of render. It accepts only that shape, so a
// change to the query streams' syntax fails loudly instead of replaying the
// wrong conjunctions.
func parseQuery(s string, numTerms int) (query, error) {
	q := query{not: -1, or: -1, text: s}
	body := s
	if strings.HasPrefix(body, "(") {
		i := strings.LastIndex(body, ") OR ")
		if i < 0 {
			return q, fmt.Errorf("query %q: unbalanced OR branch", s)
		}
		t, err := parseTerm(body[i+len(") OR "):], numTerms)
		if err != nil {
			return q, fmt.Errorf("query %q: %w", s, err)
		}
		q.or, body = t, body[1:i]
	}
	for _, p := range strings.Split(body, " AND ") {
		neg := strings.HasPrefix(p, "NOT ")
		t, err := parseTerm(strings.TrimPrefix(p, "NOT "), numTerms)
		if err != nil {
			return q, fmt.Errorf("query %q: %w", s, err)
		}
		if neg {
			if q.not >= 0 {
				return q, fmt.Errorf("query %q: more than one NOT", s)
			}
			q.not = t
			continue
		}
		q.and = append(q.and, t)
	}
	if len(q.and) == 0 {
		return q, fmt.Errorf("query %q: no positive term", s)
	}
	return q, nil
}

func parseTerm(s string, numTerms int) (int, error) {
	if !strings.HasPrefix(s, "t") {
		return 0, fmt.Errorf("term %q is not t<rank>", s)
	}
	t, err := strconv.Atoi(s[1:])
	if err != nil || t < 0 || t >= numTerms {
		return 0, fmt.Errorf("term %q is not a corpus rank", s)
	}
	return t, nil
}

// eval computes q's matching documents with internal/sets over the posting
// lists post returns: the reference every engine answer is checked against.
func (q *query) eval(post func(int) []uint32) []uint32 {
	lists := make([][]uint32, len(q.and))
	for i, t := range q.and {
		lists[i] = post(t)
	}
	res := sets.IntersectReference(lists...)
	if q.not >= 0 {
		res = sets.Difference(res, post(q.not))
	}
	if q.or >= 0 {
		res = sets.Union(res, post(q.or))
	}
	return res
}

type opKind uint8

const (
	opQuery opKind = iota
	opAdd
	opDelete
)

// op is one engine call of a workload's fixed operation sequence.
type op struct {
	kind  opKind
	q     int32    // opQuery: index into inputs.queries
	doc   uint32   // opAdd, opDelete
	terms []string // opAdd
}

// inputs is everything a run feeds the engine, generated from the seed
// alone: the corpus (loaded through Builder.AddPosting) and the operation
// sequence.
type inputs struct {
	real    *workload.Real
	queries []query // distinct queries the operations refer to
	ops     []op
	// compactAt is the churn workload's compaction threshold (postings per
	// shard), sized from the generated sequence; 0 for read workloads.
	compactAt int
	// model is the final document state of the churn sequence, nil for read
	// workloads.
	model *docModel
}

// Independent random streams derived from the run seed.
const (
	streamPool = iota + 1
	streamOrder
	streamChurn
	streamStream
	streamProbe
	streamWrite
	streamRecheck
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// queryPool is one pass of workload.QueryStream over the corpus's
// conjunctive queries, decorated with fsiserve's default operator mix
// (workload.DefaultStreamConfig), with repeated canonical forms dropped and
// the rest shuffled. Every pool entry is a distinct result-cache key.
func queryPool(r *workload.Real, seed uint64) ([]query, error) {
	cfg := workload.DefaultStreamConfig()
	cfg.Seed = seed ^ (streamPool << 56)
	seen := map[string]bool{}
	var out []query
	for _, s := range r.QueryStream(len(r.Queries), cfg) {
		q, err := parseQuery(s, len(r.Postings))
		if err != nil {
			return nil, err
		}
		key := canonicalKey(q)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, q)
	}
	rng := newRand(seed, streamPool)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// canonicalKey identifies q up to the operand order the engine's normalizer
// sorts away.
func canonicalKey(q query) string {
	and := append([]int(nil), q.and...)
	sort.Ints(and)
	return fmt.Sprint(and, q.not, q.or)
}

// zipfSampler draws ranks 0..n-1 with P(rank i) ∝ (i+1)^-s.
type zipfSampler struct{ cdf []float64 }

func newZipf(n int, s float64) *zipfSampler {
	z := &zipfSampler{cdf: make([]float64, n)}
	acc := 0.0
	for i := range z.cdf {
		acc += math.Pow(float64(i+1), -s)
		z.cdf[i] = acc
	}
	for i := range z.cdf {
		z.cdf[i] /= acc
	}
	return z
}

func (z *zipfSampler) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// coldOps walks the shuffled pool round-robin. The pool is far larger than
// the result cache, so an LRU never holds a query when it comes round again.
func coldOps(pool []query, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opQuery, q: int32(i % len(pool))}
	}
	return ops
}

// hotZipfS is the popularity skew of search-hot. No query log backs it: it
// is the round value that makes most queries result-cache hits, which is
// all the workload asks for (71% measured on seeds 1 and 7919).
const hotZipfS = 1.0

// hotOps draws each query's pool rank from a Zipf distribution.
func hotOps(pool []query, n int, seed uint64) []op {
	rng := newRand(seed, streamOrder)
	z := newZipf(len(pool), hotZipfS)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opQuery, q: int32(z.draw(rng))}
	}
	return ops
}

// churnOps renders workload.ChurnStream's default add/delete/query mix and
// interns its query strings.
func churnOps(r *workload.Real, n int, seed uint64) ([]op, []query, error) {
	cfg := workload.DefaultChurnConfig()
	cfg.Seed = seed ^ (streamChurn << 56)
	cfg.Stream.Seed = seed ^ (streamStream << 56)
	stream := r.ChurnStream(n, cfg)
	idx := map[string]int32{}
	var queries []query
	ops := make([]op, len(stream))
	for i, c := range stream {
		switch c.Kind {
		case workload.ChurnAdd:
			ops[i] = op{kind: opAdd, doc: c.DocID, terms: c.Terms}
		case workload.ChurnDelete:
			ops[i] = op{kind: opDelete, doc: c.DocID}
		default:
			qi, ok := idx[c.Query]
			if !ok {
				q, err := parseQuery(c.Query, len(r.Postings))
				if err != nil {
					return nil, nil, err
				}
				qi = int32(len(queries))
				idx[c.Query] = qi
				queries = append(queries, q)
			}
			ops[i] = op{kind: opQuery, q: qi}
		}
	}
	return ops, queries, nil
}

// docModel is the reference state of a churned corpus: the generated base
// postings overridden by the last add or delete of every touched document.
// Each client replays every operation on its documents in stream order, so
// this final state does not depend on how the clients interleave.
type docModel struct {
	base  [][]uint32
	state map[uint32][]string // last add's terms; nil after a delete
	added map[string][]uint32 // term name → touched live documents holding it
	memo  map[int][]uint32    // posting's answers
}

func newDocModel(base [][]uint32, ops []op) *docModel {
	m := &docModel{base: base, state: map[uint32][]string{}, added: map[string][]uint32{}, memo: map[int][]uint32{}}
	for _, o := range ops {
		switch o.kind {
		case opAdd:
			m.state[o.doc] = o.terms
		case opDelete:
			m.state[o.doc] = nil
		}
	}
	for doc, terms := range m.state {
		for _, t := range terms {
			m.added[t] = append(m.added[t], doc)
		}
	}
	for t, l := range m.added {
		m.added[t] = sets.SortDedup(l)
	}
	return m
}

// posting returns term t's visible documents under the model.
func (m *docModel) posting(t int) []uint32 {
	if p, ok := m.memo[t]; ok {
		return p
	}
	out := make([]uint32, 0, len(m.base[t]))
	for _, d := range m.base[t] {
		if _, touched := m.state[d]; !touched {
			out = append(out, d)
		}
	}
	m.memo[t] = sets.Union(out, m.added[workload.TermName(t)])
	return m.memo[t]
}

// headTerms draws k distinct head-biased term ranks with ChurnStream's
// quadratic bias, so probes and probe documents meet the churned postings.
func headTerms(rng *rand.Rand, numTerms, k int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		t := int(rng.Float64() * rng.Float64() * float64(numTerms))
		if t >= numTerms {
			t = numTerms - 1
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// probeQueries are the fixed queries checked against docModel once a churn
// run has quiesced: conjunctions of 1–3 head terms, a quarter of them minus
// a further term and a quarter unioned with one.
func probeQueries(numTerms, n int, seed uint64) []query {
	rng := newRand(seed, streamProbe)
	out := make([]query, n)
	for i := range out {
		ts := headTerms(rng, numTerms, 2+rng.IntN(3))
		q := query{and: ts[:len(ts)-1], not: -1, or: -1}
		switch i % 4 {
		case 1:
			q.not = ts[len(ts)-1]
		case 2:
			q.or = ts[len(ts)-1]
		}
		q.text = q.render()
		out[i] = q
	}
	return out
}

// recheckQueries is a seeded sample of n of the churn stream's own distinct
// queries, checked against docModel once the run has quiesced. The engine
// answered and cached each of them at an older index generation, so a result
// cache that kept serving an entry after a mutation answers wrongly here.
func recheckQueries(stream []query, n int, seed uint64) []query {
	idx := newRand(seed, streamRecheck).Perm(len(stream))
	out := make([]query, 0, n)
	for _, i := range idx[:min(n, len(idx))] {
		out = append(out, stream[i])
	}
	return out
}

// writeProbe is the fixed mutation batch timed after a read-only phase: n
// fresh documents added, with every second add followed by the delete of an
// earlier probe document — ChurnStream's two adds per delete, so the median
// falls inside the add latencies instead of between two populations. IDs lie
// above every ID the churn stream can draw, and every delete must find its
// document.
func writeProbe(numDocs uint32, numTerms, n int, seed uint64) []op {
	rng := newRand(seed, streamWrite)
	base := 3 * numDocs
	ops := make([]op, 0, n+n/2)
	for i := 0; i < n; i++ {
		ts := headTerms(rng, numTerms, 1+rng.IntN(6))
		names := make([]string, len(ts))
		for j, t := range ts {
			names[j] = workload.TermName(t)
		}
		ops = append(ops, op{kind: opAdd, doc: base + uint32(i), terms: names})
		if i%2 == 1 {
			ops = append(ops, op{kind: opDelete, doc: base + uint32(i/2)})
		}
	}
	return ops
}
