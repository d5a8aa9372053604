package fastintersect

// One benchmark per table/figure of the paper's evaluation, over scaled-down
// (but shape-preserving) workloads so `go test -bench=. -benchmem` finishes
// in minutes. The cmd/fsibench harness regenerates the full tables (with
// -scale full for paper-scale sizes).

import (
	"fmt"
	"sync"
	"testing"

	"fastintersect/internal/compress"
	"fastintersect/internal/core"
	"fastintersect/internal/workload"
	"fastintersect/internal/xhash"
)

const benchSeed = 0xBE4C_5EED

// benchAlgos is the roster plotted across Figures 4-7.
var benchAlgos = []Algorithm{
	Merge, SkipList, Hash, IntGroup, BPP, Adaptive, SvS, Lookup,
	RanGroup, RanGroupScan, HashBin,
}

// pairFixture is a preprocessed equal-size pair with controlled r.
type pairFixture struct {
	once  sync.Once
	a, b  *List
	rawA  []uint32
	rawB  []uint32
	n, r  int
	build func(f *pairFixture)
}

func (f *pairFixture) get(b *testing.B) (*List, *List) {
	f.once.Do(func() { f.build(f) })
	b.ResetTimer()
	return f.a, f.b
}

func newPairFixture(n, r int, seedOff uint64) *pairFixture {
	f := &pairFixture{n: n, r: r}
	f.build = func(f *pairFixture) {
		rng := xhash.NewRNG(benchSeed + seedOff)
		f.rawA, f.rawB = workload.PairWithIntersection(workload.DefaultUniverse, f.n, f.n, f.r, rng)
		f.a, _ = Preprocess(f.rawA, WithHashImages(4))
		f.b, _ = Preprocess(f.rawB, WithHashImages(4))
		// Warm every algorithm's lazy structures outside the timer.
		for _, algo := range benchAlgos {
			_, _ = IntersectWith(algo, f.a, f.b)
		}
	}
	return f
}

var fig4Fixture = newPairFixture(500_000, 5_000, 4)

// BenchmarkFig4SetSize reproduces Figure 4's algorithm roster on a 500K
// equal-size pair with a 1% intersection.
func BenchmarkFig4SetSize(b *testing.B) {
	for _, algo := range benchAlgos {
		b.Run(algo.String(), func(b *testing.B) {
			la, lb := fig4Fixture.get(b)
			for i := 0; i < b.N; i++ {
				_, _ = IntersectWith(algo, la, lb)
			}
		})
	}
}

// BenchmarkIntersectBuffered contrasts the allocating API with the pooled
// buffered one on the Figure 4 pair: same kernel work, zero allocations
// per op once the context and destination are warm.
func BenchmarkIntersectBuffered(b *testing.B) {
	la, lb := fig4Fixture.get(b)
	b.Run("IntersectWith", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = IntersectWith(RanGroupScan, la, lb)
		}
	})
	b.Run("IntersectWithBuf", func(b *testing.B) {
		ctx := GetExecContext()
		defer ctx.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = IntersectWithBuf(ctx, RanGroupScan, la, lb)
		}
	})
	b.Run("IntersectInto", func(b *testing.B) {
		ctx := GetExecContext()
		defer ctx.Release()
		dst := make([]uint32, 0, la.Len())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = IntersectInto(ctx, dst[:0], RanGroupScan, la, lb)
		}
	})
}

var fig5Fixtures = map[int]*pairFixture{
	1:  newPairFixture(500_000, 5_000, 51),
	50: newPairFixture(500_000, 250_000, 52),
	90: newPairFixture(500_000, 450_000, 53),
}

// BenchmarkFig5IntersectionSize reproduces Figure 5's crossover: Merge
// overtakes the grouped algorithms once r grows past ~70% of the sets.
func BenchmarkFig5IntersectionSize(b *testing.B) {
	for _, pct := range []int{1, 50, 90} {
		for _, algo := range []Algorithm{Merge, IntGroup, RanGroup, RanGroupScan, SvS} {
			b.Run(fmt.Sprintf("r=%d%%/%s", pct, algo), func(b *testing.B) {
				la, lb := fig5Fixtures[pct].get(b)
				for i := 0; i < b.N; i++ {
					_, _ = IntersectWith(algo, la, lb)
				}
			})
		}
	}
}

// kFixture holds k preprocessed uniform sets (Figure 6's workload).
type kFixture struct {
	once  sync.Once
	lists []*List
}

var fig6Fixtures = map[int]*kFixture{2: {}, 3: {}, 4: {}}

func getKFixture(b *testing.B, k int) []*List {
	f := fig6Fixtures[k]
	f.once.Do(func() {
		rng := xhash.NewRNG(benchSeed + 600 + uint64(k))
		ns := make([]int, k)
		for i := range ns {
			ns[i] = 500_000
		}
		raw := workload.RandomSets(workload.DefaultUniverse, ns, rng)
		f.lists = make([]*List, k)
		for i, s := range raw {
			f.lists[i], _ = Preprocess(s, WithHashImages(2))
		}
		for _, algo := range []Algorithm{Merge, SvS, Lookup, RanGroup, RanGroupScan} {
			_, _ = IntersectWith(algo, f.lists...)
		}
	})
	b.ResetTimer()
	return f.lists
}

// BenchmarkFig6Keywords reproduces Figure 6: k = 2, 3, 4 sets, m = 2.
func BenchmarkFig6Keywords(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		for _, algo := range []Algorithm{Merge, SvS, Lookup, RanGroup, RanGroupScan} {
			b.Run(fmt.Sprintf("k=%d/%s", k, algo), func(b *testing.B) {
				lists := getKFixture(b, k)
				for i := 0; i < b.N; i++ {
					_, _ = IntersectWith(algo, lists...)
				}
			})
		}
	}
}

// ratioFixture preprocesses a skewed pair for the size-ratio experiment.
type ratioFixture struct {
	once sync.Once
	a, b *List
	sr   int
}

var ratioFixtures = map[int]*ratioFixture{16: {sr: 16}, 256: {sr: 256}}

func getRatioFixture(b *testing.B, sr int) (*List, *List) {
	f := ratioFixtures[sr]
	f.once.Do(func() {
		rng := xhash.NewRNG(benchSeed + 700 + uint64(sr))
		n2 := 1_000_000
		n1 := n2 / f.sr
		rawA, rawB := workload.PairWithIntersection(workload.DefaultUniverse, n1, n2, n1/100, rng)
		f.a, _ = Preprocess(rawA, WithHashImages(4))
		f.b, _ = Preprocess(rawB, WithHashImages(4))
		for _, algo := range []Algorithm{Hash, Lookup, RanGroupScan, HashBin} {
			_, _ = IntersectWith(algo, f.a, f.b)
		}
	})
	b.ResetTimer()
	return f.a, f.b
}

// BenchmarkRatio reproduces the §4 size-ratio sweep: RanGroupScan wins at
// small ratios, Hash/Lookup/HashBin at large ones.
func BenchmarkRatio(b *testing.B) {
	for _, sr := range []int{16, 256} {
		for _, algo := range []Algorithm{Hash, Lookup, RanGroupScan, HashBin} {
			b.Run(fmt.Sprintf("sr=%d/%s", sr, algo), func(b *testing.B) {
				la, lb := getRatioFixture(b, sr)
				for i := 0; i < b.N; i++ {
					_, _ = IntersectWith(algo, la, lb)
				}
			})
		}
	}
}

// BenchmarkSizes reports the §4 structure sizes as bytes-per-posting
// metrics rather than timings.
func BenchmarkSizes(b *testing.B) {
	rng := xhash.NewRNG(benchSeed + 800)
	set := workload.RandomSets(workload.DefaultUniverse, []int{500_000}, rng)[0]
	fam := core.NewFamily(benchSeed, core.MaxImageCount)
	for i := 0; i < b.N; i++ {
		rgs2, _ := core.NewRanGroupScanList(fam, set, 2)
		rgs4, _ := core.NewRanGroupScanList(fam, set, 4)
		ig, _ := core.NewIntGroupList(fam, set, false)
		rg, _ := core.NewRanGroupList(fam, set)
		b.ReportMetric(float64(rgs2.SizeWords()*8)/float64(len(set)), "RGS2-B/posting")
		b.ReportMetric(float64(rgs4.SizeWords()*8)/float64(len(set)), "RGS4-B/posting")
		b.ReportMetric(float64(ig.SizeWords()*8)/float64(len(set)), "IntGroup-B/posting")
		b.ReportMetric(float64(rg.SizeWords()*8)/float64(len(set)), "RanGroup-B/posting")
	}
}

// realBench holds the simulated real workload for Figures 7 and 12.
type realBench struct {
	once  sync.Once
	real  *workload.Real
	lists map[int]*List
}

var realFixture realBench

func getRealBench(b *testing.B) *realBench {
	realFixture.once.Do(func() {
		cfg := workload.SmallRealConfig()
		cfg.NumDocs = 100_000
		cfg.NumTerms = 10_000
		cfg.NumQueries = 200
		realFixture.real = workload.NewReal(cfg)
		realFixture.lists = map[int]*List{}
		for _, q := range realFixture.real.Queries {
			for _, term := range q.Terms {
				if _, ok := realFixture.lists[term]; !ok {
					realFixture.lists[term], _ = Preprocess(realFixture.real.Postings[term], WithHashImages(4))
				}
			}
		}
	})
	b.ResetTimer()
	return &realFixture
}

// queryLists resolves a query's preprocessed lists.
func (r *realBench) queryLists(q workload.Query) []*List {
	out := make([]*List, len(q.Terms))
	for i, t := range q.Terms {
		out[i] = r.lists[t]
	}
	return out
}

// BenchmarkFig7RealWorkload runs the whole simulated query log per
// iteration; compare algorithms by ns/op.
func BenchmarkFig7RealWorkload(b *testing.B) {
	for _, algo := range []Algorithm{Merge, SvS, Lookup, Hash, RanGroup, RanGroupScan, HashBin} {
		b.Run(algo.String(), func(b *testing.B) {
			r := getRealBench(b)
			// Warm structures.
			for _, q := range r.real.Queries {
				_, _ = IntersectWith(algo, r.queryLists(q)...)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range r.real.Queries {
					_, _ = IntersectWith(algo, r.queryLists(q)...)
				}
			}
		})
	}
}

// BenchmarkFig12PerK is Figure 12: the real workload split by query length.
func BenchmarkFig12PerK(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		for _, algo := range []Algorithm{Merge, RanGroup, RanGroupScan} {
			b.Run(fmt.Sprintf("k=%d/%s", k, algo), func(b *testing.B) {
				r := getRealBench(b)
				var queries []workload.Query
				for _, q := range r.real.Queries {
					if len(q.Terms) == k {
						queries = append(queries, q)
					}
				}
				if len(queries) == 0 {
					b.Skip("no queries of this length in the sample")
				}
				for _, q := range queries {
					_, _ = IntersectWith(algo, r.queryLists(q)...)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						_, _ = IntersectWith(algo, r.queryLists(q)...)
					}
				}
			})
		}
	}
}

// compressedFixture builds the Figure 8 variants once.
type compressedFixture struct {
	once   sync.Once
	merged *compress.MergeList
	mergeB *compress.MergeList
	lookA  *compress.LookupList
	lookB  *compress.LookupList
	rgsDA  *compress.RGSList
	rgsDB  *compress.RGSList
	rgsLA  *compress.RGSList
	rgsLB  *compress.RGSList
}

var fig8Fixture compressedFixture

func getFig8Fixture(b *testing.B) *compressedFixture {
	fig8Fixture.once.Do(func() {
		rng := xhash.NewRNG(benchSeed + 900)
		fam := core.NewFamily(benchSeed, core.MaxImageCount)
		x, y := workload.PairWithIntersection(workload.DefaultUniverse, 524_288, 524_288, 5_242, rng)
		fig8Fixture.merged, _ = compress.NewMergeList(x, compress.Delta)
		fig8Fixture.mergeB, _ = compress.NewMergeList(y, compress.Delta)
		fig8Fixture.lookA, _ = compress.NewLookupListAuto(x, compress.Delta, 32)
		fig8Fixture.lookB, _ = compress.NewLookupListAuto(y, compress.Delta, 32)
		fig8Fixture.rgsDA, _ = compress.NewRGSList(fam, x, 1, compress.RGSDelta)
		fig8Fixture.rgsDB, _ = compress.NewRGSList(fam, y, 1, compress.RGSDelta)
		fig8Fixture.rgsLA, _ = compress.NewRGSList(fam, x, 1, compress.RGSLowbits)
		fig8Fixture.rgsLB, _ = compress.NewRGSList(fam, y, 1, compress.RGSLowbits)
	})
	b.ResetTimer()
	return &fig8Fixture
}

// BenchmarkFig8Compressed reproduces Figure 8's time panel on a 512K pair.
func BenchmarkFig8Compressed(b *testing.B) {
	b.Run("Merge_Delta", func(b *testing.B) {
		f := getFig8Fixture(b)
		for i := 0; i < b.N; i++ {
			compress.IntersectMerge(f.merged, f.mergeB)
		}
	})
	b.Run("Lookup_Delta", func(b *testing.B) {
		f := getFig8Fixture(b)
		for i := 0; i < b.N; i++ {
			compress.IntersectLookup(f.lookA, f.lookB)
		}
	})
	b.Run("RanGroupScan_Delta", func(b *testing.B) {
		f := getFig8Fixture(b)
		for i := 0; i < b.N; i++ {
			compress.IntersectRGS(f.rgsDA, f.rgsDB)
		}
	})
	b.Run("RanGroupScan_Lowbits", func(b *testing.B) {
		f := getFig8Fixture(b)
		for i := 0; i < b.N; i++ {
			compress.IntersectRGS(f.rgsLA, f.rgsLB)
		}
	})
}

// BenchmarkRealCompressed is the §4.1 real-data compressed comparison on
// the simulated workload's 2-keyword queries.
func BenchmarkRealCompressed(b *testing.B) {
	r := getRealBench(b)
	fam := core.NewFamily(benchSeed, core.MaxImageCount)
	type pair struct {
		ml1, ml2 *compress.MergeList
		rl1, rl2 *compress.RGSList
	}
	var pairs []pair
	for _, q := range r.real.Queries {
		if len(q.Terms) != 2 || len(pairs) >= 50 {
			continue
		}
		p1, p2 := r.real.Postings[q.Terms[0]], r.real.Postings[q.Terms[1]]
		var p pair
		p.ml1, _ = compress.NewMergeList(p1, compress.Delta)
		p.ml2, _ = compress.NewMergeList(p2, compress.Delta)
		p.rl1, _ = compress.NewRGSList(fam, p1, 1, compress.RGSLowbits)
		p.rl2, _ = compress.NewRGSList(fam, p2, 1, compress.RGSLowbits)
		pairs = append(pairs, p)
	}
	b.Run("Merge_Delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				compress.IntersectMerge(p.ml1, p.ml2)
			}
		}
	})
	b.Run("RanGroupScan_Lowbits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				compress.IntersectRGS(p.rl1, p.rl2)
			}
		}
	})
}

// BenchmarkFig9Filtering measures Algorithm 5's filter success probability
// (reported as a metric, not a timing).
func BenchmarkFig9Filtering(b *testing.B) {
	rng := xhash.NewRNG(benchSeed + 901)
	fam := core.NewFamily(benchSeed, core.MaxImageCount)
	x, y := workload.PairWithIntersection(workload.DefaultUniverse, 100_000, 100_000, 1_000, rng)
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			la, _ := core.NewRanGroupScanList(fam, x, m)
			lb, _ := core.NewRanGroupScanList(fam, y, m)
			b.ResetTimer()
			var p float64
			for i := 0; i < b.N; i++ {
				_, st := core.IntersectRanGroupScanStats(la, lb)
				p = st.SuccessProbability()
			}
			b.ReportMetric(p, "P(filter)")
		})
	}
}

// BenchmarkFig10Preprocess times structure construction (Figure 10).
func BenchmarkFig10Preprocess(b *testing.B) {
	rng := xhash.NewRNG(benchSeed + 902)
	set := workload.RandomSets(workload.DefaultUniverse, []int{500_000}, rng)[0]
	fam := core.NewFamily(benchSeed, core.MaxImageCount)
	b.Run("HashBin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = core.NewHashBinList(fam, set)
		}
	})
	b.Run("IntGroup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = core.NewIntGroupList(fam, set, false)
		}
	})
	b.Run("RanGroup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = core.NewRanGroupList(fam, set)
		}
	})
	b.Run("RanGroupScan_m4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = core.NewRanGroupScanList(fam, set, 4)
		}
	})
}

// BenchmarkFig11PreprocessCompressed times compressed construction
// (Figure 11).
func BenchmarkFig11PreprocessCompressed(b *testing.B) {
	rng := xhash.NewRNG(benchSeed + 903)
	set := workload.RandomSets(workload.DefaultUniverse, []int{500_000}, rng)[0]
	fam := core.NewFamily(benchSeed, core.MaxImageCount)
	b.Run("RGS_Lowbits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = compress.NewRGSList(fam, set, 1, compress.RGSLowbits)
		}
	})
	b.Run("RGS_Delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = compress.NewRGSList(fam, set, 1, compress.RGSDelta)
		}
	})
	b.Run("Merge_Delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = compress.NewMergeList(set, compress.Delta)
		}
	})
	b.Run("Merge_Gamma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = compress.NewMergeList(set, compress.Gamma)
		}
	})
}
