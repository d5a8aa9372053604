package engine

import (
	"fmt"
	"sync"
	"testing"

	"strings"

	"fastintersect/internal/race"
	"fastintersect/internal/sets"
)

// TestOrTenWay verifies the k-way union satellite at the engine level: a
// 10-operand OR must equal the reference union of its posting lists, under
// both shard shapes.
func TestOrTenWay(t *testing.T) {
	const numDocs = 5000
	q := "m2 OR m3 OR m4 OR m5 OR m6 OR m7 OR m8 OR m9 OR m10 OR m11"
	want := refEval(numDocs, func(d uint32) bool {
		for k := uint32(2); k <= 11; k++ {
			if d%k == 0 {
				return true
			}
		}
		return false
	})
	for _, shards := range []int{1, 4} {
		e := buildTestEngine(t, Config{Shards: shards}, numDocs)
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sets.Equal(res.Docs, want) {
			t.Fatalf("shards=%d: 10-way OR returned %d docs, want %d",
				shards, len(res.Docs), len(want))
		}
	}
}

// TestEmptyConjunctionWithCompositeKid pins the fix for a planner bug: a
// conjunction whose term operands intersect to empty must stay empty, not
// adopt a composite kid's result as if no term base existed. (The empty
// base used to be returned as nil, which the kid-adoption test mistook for
// "no base operands" — and whether the kernel returned nil or a non-nil
// empty slice depended on pool warmth, so results flipped with traffic.)
func TestEmptyConjunctionWithCompositeKid(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		e := New(Config{Shards: 1})
		b := e.NewBuilder()
		for term, docs := range map[string][]uint32{
			"a": {1, 3, 5}, // disjoint from b
			"b": {2, 4, 6},
			"c": {1, 2},
			"d": {3, 4},
		} {
			if err := b.AddPosting(term, docs); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Install(b); err != nil {
			t.Fatal(err)
		}
		for q, want := range map[string][]uint32{
			"a AND b AND (c OR d)":  nil, // empty base ∧ composite kid
			"a AND c AND (c OR d)":  {1}, // non-empty base ∧ composite kid
			"(a OR b) AND (c OR d)": {1, 2, 3, 4},
		} {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("Query(%q): %v", q, err)
			}
			if !sets.Equal(res.Docs, want) {
				t.Fatalf("Query(%q) = %v, want %v", q, res.Docs, want)
			}
		}
	})
}

// TestQueryAllocs pins the engine's per-query allocation budget so pooling
// regressions surface as test failures. The bounds are deliberately above
// the measured steady state — parsing, planning and the fresh result slice
// legitimately allocate — but far below the pre-ExecContext numbers (≈70
// allocs/op on the mixed workload), so a layer that starts allocating per
// operand or per group again will trip them. A query evaluates its shards
// on the calling goroutine with one execution context, so a 4-shard row
// shares its 1-shard row's bound: a per-shard allocation (a goroutine, a
// context, a recording arena) trips it. (This is the engine layer's
// AllocsPerRun guard; the core, compress and API layers have their own.)
func TestQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; the allocation bounds cannot hold")
	}
	const numDocs = 20_000
	cases := []struct {
		name   string
		shards int
		query  string
		count  bool // QueryCount instead of Query
		tier   bool // two frozen segments plus a non-empty active one per shard
		max    float64
	}{
		{"raw-and-1shard", 1, "m2 AND m3", false, false, 30},
		{"raw-mixed-1shard", 1, "(m2 AND m3) OR m11 AND NOT m13", false, false, 60},
		{"raw-and-4shard", 4, "m2 AND m3", false, false, 30},
		// The m2/m3/m4 lists are dense enough for the planner to pick the
		// bitmap tier, so this pins the word-parallel k-way kernel end to
		// end: the lists' attached bitseg forms in, zero kernel-side
		// allocations, same budget as the scalar paths.
		{"bitseg-kway-1shard", 1, "m2 AND m3 AND m4", false, false, 30},
		// Count-only fast path: skips the merged-result copy entirely, so it
		// must fit the same budget as the materializing query.
		{"count-raw-and-1shard", 1, "m2 AND m3", true, false, 30},
		{"count-raw-and-4shard", 4, "m2 AND m3", true, false, 30},
		// The segment path: every in-memory segment runs the same evaluator
		// over its plain []uint32 lists. The bounds sit a few allocations
		// above the 19 / 28 / 47 allocs/op the evaluator measured before
		// operands were ever wrapped, tight enough that wrapping one
		// operand per evaluation trips every row.
		{"raw-and-tiered-1shard", 1, "m2 AND m3", false, true, 22},
		{"raw-and-tiered-4shard", 4, "m2 AND m3", false, true, 22},
		{"raw-mixed-tiered-1shard", 1, "(m2 AND m3) OR m11 AND NOT m13", false, true, 54},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm, a query's head pairs that reach the pair cache's
			// threshold hit it; with a zero budget the same query runs
			// every kernel. Both paths must meet the row's bound.
			for _, zeroPairs := range []bool{false, true} {
				e := tunePairs(buildTestEngine(t, Config{Shards: tc.shards}, numDocs), pairMinLen, zeroPairs)
				if tc.tier {
					addTier(t, e, numDocs, 50)
				}
				if tc.name == "bitseg-kway-1shard" {
					_, expl, err := e.Explain(tc.query)
					if err != nil {
						t.Fatal(err)
					}
					if !strings.Contains(expl, "kernel=BitsegAnd") {
						t.Fatalf("the bitseg case needs a BitsegAnd plan, got:\n%s", expl)
					}
				}
				run := e.Query
				if tc.count {
					run = e.QueryCount
				}
				for i := 0; i < 5; i++ { // warm pools and the pair cache
					if _, err := run(tc.query); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				n := testing.AllocsPerRun(50, func() {
					_, err = run(tc.query)
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%.1f allocs/op (zero pair-cache budget %v, %d pair hits; bound %v)",
					n, zeroPairs, e.Stats().PairCache.Hits, tc.max)
				if n > tc.max {
					t.Fatalf("Query(%q) allocates %.1f times per op (zero pair-cache budget %v), want ≤ %v",
						tc.query, n, zeroPairs, tc.max)
				}
			}
		})
	}
}

// TestQueryCachedAllocs pins the cache-hit path: a repeated query touches
// only the parser and the LRU.
func TestQueryCachedAllocs(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 64}, 10_000)
	const q = "m2 AND m3 AND NOT m5"
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	var err error
	n := testing.AllocsPerRun(50, func() {
		_, err = e.Query(q)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n > 35 {
		t.Fatalf("cached Query allocates %.1f times per op, want ≤ 35", n)
	}
}

// TestConcurrentQueryPoolingIntegrity is the result-cache safety check
// under pooling: many goroutines hammer the same engine with overlapping
// queries (cache enabled, so returned slices are shared between queries
// and with the LRU) while another goroutine repeatedly rebuilds the index
// with identical data. If any returned or cached slice aliased a pooled
// buffer that got recycled into a concurrent query, results would corrupt;
// every result is checked against the independently derived expectation.
// Run under -race in CI.
func TestConcurrentQueryPoolingIntegrity(t *testing.T) {
	const numDocs = 8000
	t.Run("raw", func(t *testing.T) {
		e := buildTestEngine(t, Config{Shards: 4, CacheSize: 8}, numDocs)
		type expectation struct {
			q    string
			want []uint32
		}
		var exps []expectation
		for _, tq := range testQueries {
			if tq.pred == nil {
				continue
			}
			exps = append(exps, expectation{tq.q, refEval(numDocs, tq.pred)})
		}
		stop := make(chan struct{})
		var rebuildWG sync.WaitGroup
		rebuildWG.Add(1)
		go func() {
			defer rebuildWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := e.NewBuilder()
				for d := uint32(0); d < numDocs; d++ {
					terms := []string{"all"}
					for k := uint32(2); k <= 13; k++ {
						if d%k == 0 {
							terms = append(terms, fmt.Sprintf("m%d", k))
						}
					}
					if d%97 == 0 {
						terms = append(terms, "rare")
					}
					if err := b.Add(d, terms); err != nil {
						t.Error(err)
						return
					}
				}
				if err := e.Install(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					exp := exps[(g+i)%len(exps)]
					res, err := e.Query(exp.q)
					if err != nil {
						t.Errorf("Query(%q): %v", exp.q, err)
						return
					}
					if !sets.Equal(res.Docs, exp.want) {
						t.Errorf("goroutine %d iter %d: Query(%q) returned %d docs, want %d — pooled buffer corruption?",
							g, i, exp.q, len(res.Docs), len(exp.want))
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(stop)
		rebuildWG.Wait()
	})
}
