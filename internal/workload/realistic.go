package workload

import (
	"math"
	"slices"
	"sort"

	"fastintersect/internal/sets"
	"fastintersect/internal/xhash"
)

// RealConfig parameterizes the simulated real-data workload that stands in
// for the paper's 8M-page Wikipedia corpus and 10⁴ most frequent Bing
// queries. The defaults of SmallRealConfig keep the full experiment suite
// fast; FullRealConfig approaches paper scale.
type RealConfig struct {
	NumDocs    uint32  // corpus size (paper: 8M)
	NumTerms   int     // vocabulary size
	NumQueries int     // workload size (paper: 10⁴)
	ZipfS      float64 // document-frequency skew: df(rank) ∝ rank^-s
	TopDFFrac  float64 // df of the most frequent term as a fraction of NumDocs
	HotFrac    float64 // fraction of "hot" documents (topicality proxy)
	HotWeight  int     // sampling weight of hot documents (≥1)
	Seed       uint64
}

// SmallRealConfig is the scaled-down default used by the default harness
// runs. The document-frequency tail is deliberately heavy (ZipfS < 1) so
// that query-head posting lists reach the cache-exceeding sizes that give
// the paper's real workload its character.
func SmallRealConfig() RealConfig {
	return RealConfig{
		NumDocs:    1_000_000,
		NumTerms:   50_000,
		NumQueries: 1_000,
		ZipfS:      0.7,
		TopDFFrac:  0.2,
		HotFrac:    0.08,
		HotWeight:  24,
		Seed:       0xC0FFEE,
	}
}

// FullRealConfig approaches the paper's scale (8M documents, 10⁴ queries).
func FullRealConfig() RealConfig {
	c := SmallRealConfig()
	c.NumDocs = 8_000_000
	c.NumTerms = 200_000
	c.NumQueries = 10_000
	c.ZipfS = 0.85 // keeps total posting volume within a few hundred MB
	return c
}

// Query is a list of term IDs, ordered by ascending document frequency
// (so Terms[0] is the rarest keyword, L1 in the paper's notation).
type Query struct {
	Terms []int
}

// Real is a simulated corpus plus query workload. Postings[t] is the sorted
// posting list of term t; terms are numbered by descending document
// frequency (term 0 is the most frequent).
type Real struct {
	Config   RealConfig
	Postings [][]uint32
	Queries  []Query
}

// NewReal builds the workload. Generation is deterministic in cfg.Seed.
func NewReal(cfg RealConfig) *Real {
	if cfg.HotWeight < 1 {
		cfg.HotWeight = 1
	}
	rng := xhash.NewRNG(cfg.Seed)
	r := &Real{Config: cfg}
	r.buildPostings(rng)
	r.buildQueries(rng)
	return r
}

// buildPostings creates Zipf-distributed posting lists with topical
// correlation: a fixed "hot" subset of documents is HotWeight times more
// likely to appear in any posting list, so frequent terms co-occur more
// than independence would predict — the property (small r relative to the
// smallest list, but far from zero) that the paper's real data exhibits.
func (r *Real) buildPostings(rng *xhash.RNG) {
	cfg := r.Config
	n := cfg.NumDocs
	// Weighted document pool: hot documents appear HotWeight times.
	hotCut := uint64(float64(n) * cfg.HotFrac)
	poolLen := 0
	for d := uint32(0); d < n; d++ {
		if isHot(d, n, hotCut) {
			poolLen += cfg.HotWeight
		} else {
			poolLen++
		}
	}
	pool := make([]uint32, 0, poolLen)
	for d := uint32(0); d < n; d++ {
		reps := 1
		if isHot(d, n, hotCut) {
			reps = cfg.HotWeight
		}
		for i := 0; i < reps; i++ {
			pool = append(pool, d)
		}
	}

	topDF := int(float64(n) * cfg.TopDFFrac)
	if topDF < 1 {
		topDF = 1
	}
	r.Postings = make([][]uint32, cfg.NumTerms)
	used := sets.NewBitset(n)
	for t := 0; t < cfg.NumTerms; t++ {
		df := int(float64(topDF) / math.Pow(float64(t+1), cfg.ZipfS))
		if df < 4 {
			df = 4
		}
		used.Reset()
		list := make([]uint32, 0, df)
		for len(list) < df {
			d := pool[rng.Intn(len(pool))]
			if !used.Get(d) {
				used.Set(d)
				list = append(list, d)
			}
		}
		sets.SortU32(list)
		r.Postings[t] = list
	}
}

// isHot reports whether document d belongs to the pseudo-random hot subset.
func isHot(d, n uint32, hotCut uint64) bool {
	return uint64(d)*2654435761%uint64(n) < hotCut
}

// kDistribution mirrors the paper's query-length mix: 68% 2-keyword,
// 23% 3-keyword, 6% 4-keyword, and the remaining 3% 5-keyword.
var kDistribution = []struct {
	k    int
	frac float64
}{
	{2, 0.68}, {3, 0.23}, {4, 0.06}, {5, 0.03},
}

// ratioTargets encode the paper's measured set-size ratios: for k-keyword
// queries, the df of the i-th rarest term relative to the most frequent
// term of the query. Derived from §4 "Query characteristics":
// k=2: |L1|/|L2| ≈ 0.21; k=3: |L1|/|L3| ≈ 0.09, |L1|/|L2| ≈ 0.31;
// k=4: |L1|/|L4| ≈ 0.06, |L1|/|L2| ≈ 0.36. k=5 extrapolates the pattern.
var ratioTargets = map[int][]float64{
	2: {0.21, 1},
	3: {0.09, 0.29, 1}, // 0.29 = 0.09/0.31
	4: {0.06, 0.167, 0.41, 1},
	5: {0.05, 0.12, 0.3, 0.6, 1},
}

func (r *Real) buildQueries(rng *xhash.RNG) {
	cfg := r.Config
	// dfs[t] = |posting list of t|; descending in t by construction.
	dfs := make([]int, len(r.Postings))
	for t, p := range r.Postings {
		dfs[t] = len(p)
	}
	// Band of "head" terms usable as the most frequent keyword of a query.
	headBand := len(r.Postings) / 50
	if headBand < 4 {
		headBand = 4
	}
	r.Queries = make([]Query, 0, cfg.NumQueries)
	for len(r.Queries) < cfg.NumQueries {
		k := pickK(rng)
		// Real query terms are heavily biased towards frequent words:
		// sample the head rank log-uniformly so low ranks (big posting
		// lists) dominate, which drives the paper's r/|L1| ≈ 0.19.
		top := int(math.Exp(rng.Float64() * math.Log(float64(headBand))))
		if top >= headBand {
			top = headBand - 1
		}
		top-- // exp(0) = 1 → rank 0
		if top < 0 {
			top = 0
		}
		targets := ratioTargets[k]
		terms := make([]int, 0, k)
		seen := map[int]bool{top: true}
		ok := true
		for i := 0; i < k-1; i++ {
			want := float64(dfs[top]) * targets[i] * jitter(rng)
			t := findTermByDF(dfs, want)
			// Resolve collisions by nudging towards rarer terms.
			for seen[t] && t < len(dfs)-1 {
				t++
			}
			if seen[t] {
				ok = false
				break
			}
			seen[t] = true
			terms = append(terms, t)
		}
		if !ok {
			continue
		}
		terms = append(terms, top)
		slices.SortFunc(terms, func(a, b int) int { return dfs[a] - dfs[b] })
		r.Queries = append(r.Queries, Query{Terms: terms})
	}
}

// pickK draws a query length from kDistribution.
func pickK(rng *xhash.RNG) int {
	f := rng.Float64()
	acc := 0.0
	for _, e := range kDistribution {
		acc += e.frac
		if f < acc {
			return e.k
		}
	}
	return kDistribution[len(kDistribution)-1].k
}

// jitter returns a lognormal-ish multiplicative noise term around 1.
func jitter(rng *xhash.RNG) float64 {
	return math.Exp(0.3 * (rng.Float64()*2 - 1))
}

// findTermByDF returns the term whose df is closest to want; dfs must be
// non-increasing.
func findTermByDF(dfs []int, want float64) int {
	i := sort.Search(len(dfs), func(i int) bool { return float64(dfs[i]) <= want })
	if i == 0 {
		return 0
	}
	if i >= len(dfs) {
		return len(dfs) - 1
	}
	// dfs[i-1] > want ≥ dfs[i]: pick the closer.
	if float64(dfs[i-1])-want < want-float64(dfs[i]) {
		return i - 1
	}
	return i
}

// Lists returns the posting lists of q, smallest first.
func (r *Real) Lists(q Query) [][]uint32 {
	out := make([][]uint32, len(q.Terms))
	for i, t := range q.Terms {
		out[i] = r.Postings[t]
	}
	return out
}

// Stats summarizes the workload the way §4 "Query characteristics" does,
// so the intro-stats experiment can compare simulated against reported
// statistics.
type Stats struct {
	QueriesByK      map[int]int
	AvgRatioL1L2    map[int]float64 // per k: avg |L1|/|L2|
	AvgRatioL1Lk    map[int]float64 // per k: avg |L1|/|Lk|
	AvgInterOverL1  float64         // avg r/|L1|
	Frac10xSmaller  float64         // fraction of queries with r ≤ min df / 10  (intro: 94%)
	Frac100xSmaller float64         // fraction of queries with r ≤ min df / 100 (intro: 76%)
}

// ComputeStats measures the workload. It runs full intersections for every
// query, so it is O(total posting volume) — fine at the small scale, a few
// seconds at full scale.
func (r *Real) ComputeStats() Stats {
	st := Stats{
		QueriesByK:   map[int]int{},
		AvgRatioL1L2: map[int]float64{},
		AvgRatioL1Lk: map[int]float64{},
	}
	sum12 := map[int]float64{}
	sum1k := map[int]float64{}
	var sumROverL1 float64
	var n10, n100 int
	for _, q := range r.Queries {
		lists := r.Lists(q)
		k := len(lists)
		st.QueriesByK[k]++
		n1 := float64(len(lists[0]))
		sum12[k] += n1 / float64(len(lists[1]))
		sum1k[k] += n1 / float64(len(lists[k-1]))
		inter := sets.IntersectReference(lists...)
		rsz := float64(len(inter))
		sumROverL1 += rsz / n1
		if rsz*10 <= n1 {
			n10++
		}
		if rsz*100 <= n1 {
			n100++
		}
	}
	for k, c := range st.QueriesByK {
		st.AvgRatioL1L2[k] = sum12[k] / float64(c)
		st.AvgRatioL1Lk[k] = sum1k[k] / float64(c)
	}
	total := float64(len(r.Queries))
	st.AvgInterOverL1 = sumROverL1 / total
	st.Frac10xSmaller = float64(n10) / total
	st.Frac100xSmaller = float64(n100) / total
	return st
}
