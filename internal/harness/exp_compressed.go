package harness

import (
	"fmt"
	"time"

	"fastintersect/internal/compress"
	"fastintersect/internal/core"
	"fastintersect/internal/workload"
	"fastintersect/internal/xhash"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Compressed structures: intersection time and space",
		Paper: "Figure 8",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "real-compressed",
		Title: "Compressed structures on the (simulated) real workload",
		Paper: "§4.1 'Experiment on Real Data'",
		Run:   runRealCompressed,
	})
}

// compressedVariant bundles a compressed representation of one pair of sets
// with its intersection runner and size.
type compressedVariant struct {
	name      string
	intersect func() []uint32
	sizeWords int
}

// buildCompressedPair constructs every Figure 8 variant for a pair.
func buildCompressedPair(fam *core.Family, a, b []uint32) []compressedVariant {
	mdA, _ := compress.NewMergeList(a, compress.Delta)
	mdB, _ := compress.NewMergeList(b, compress.Delta)
	mgA, _ := compress.NewMergeList(a, compress.Gamma)
	mgB, _ := compress.NewMergeList(b, compress.Gamma)
	ldA, _ := compress.NewLookupListAuto(a, compress.Delta, 32)
	ldB, _ := compress.NewLookupListAuto(b, compress.Delta, 32)
	rdA, _ := compress.NewRGSList(fam, a, 1, compress.RGSDelta)
	rdB, _ := compress.NewRGSList(fam, b, 1, compress.RGSDelta)
	rlA, _ := compress.NewRGSList(fam, a, 1, compress.RGSLowbits)
	rlB, _ := compress.NewRGSList(fam, b, 1, compress.RGSLowbits)
	return []compressedVariant{
		{"Merge_Gamma", func() []uint32 { return compress.IntersectMerge(mgA, mgB) }, mgA.SizeWords() + mgB.SizeWords()},
		{"Merge_Delta", func() []uint32 { return compress.IntersectMerge(mdA, mdB) }, mdA.SizeWords() + mdB.SizeWords()},
		{"Lookup_Delta", func() []uint32 { return compress.IntersectLookup(ldA, ldB) }, ldA.SizeWords() + ldB.SizeWords()},
		{"RanGroupScan_Delta", func() []uint32 { return compress.IntersectRGS(rdA, rdB) }, rdA.SizeWords() + rdB.SizeWords()},
		{"RanGroupScan_Lowbits", func() []uint32 { return compress.IntersectRGS(rlA, rlB) }, rlA.SizeWords() + rlB.SizeWords()},
	}
}

func fig8Sizes(cfg Config) []int {
	if cfg.Full() {
		return []int{131_072, 262_144, 524_288, 1_048_576, 2_097_152, 4_194_304, 8_388_608}
	}
	return []int{131_072, 262_144, 524_288, 1_048_576, 2_097_152}
}

func runFig8(cfg Config) []*Table {
	fam := core.NewFamily(cfg.Seed, core.MaxImageCount)
	names := []string{"Merge_Gamma", "Merge_Delta", "Lookup_Delta", "RanGroupScan_Delta", "RanGroupScan_Lowbits"}
	tTime := &Table{
		ID:      "fig8-time",
		Title:   "Intersection time (ms), compressed structures, 2 equal sets, r = 1%, m = 1",
		Columns: append([]string{"postings"}, names...),
		Notes: []string{
			"paper shape: RanGroupScan_Lowbits fastest by 7-15x over compressed Merge/Lookup; γ ≈ δ for Merge; RanGroupScan_Delta between",
		},
	}
	tSpace := &Table{
		ID:      "fig8-space",
		Title:   "Structure size (64-bit words, both sets)",
		Columns: append([]string{"postings"}, names...),
		Notes: []string{
			"paper shape: Lowbits 1.3-1.9x the compressed inverted index",
		},
	}
	rng := xhash.NewRNG(cfg.Seed + 88)
	for _, n := range fig8Sizes(cfg) {
		a, b := workload.PairWithIntersection(workload.DefaultUniverse, n, n, n/100, rng)
		variants := buildCompressedPair(fam, a, b)
		rowT := []string{fmt.Sprintf("%d", n)}
		rowS := []string{fmt.Sprintf("%d", n)}
		for _, v := range variants {
			v.intersect() // warm
			rowT = append(rowT, ms(timeIt(cfg.Reps, func() { v.intersect() })))
			rowS = append(rowS, fmt.Sprintf("%d", v.sizeWords))
		}
		tTime.AddRow(rowT...)
		tSpace.AddRow(rowS...)
	}
	return []*Table{tTime, tSpace}
}

func runRealCompressed(cfg Config) []*Table {
	e := getRealEnv(cfg)
	fam := core.NewFamily(cfg.Seed, core.MaxImageCount)
	// Compressed structures per term, built on demand. The compressed RGS
	// intersection is two-list, so this experiment uses the 2-keyword
	// queries (68% of the workload).
	type termStructs struct {
		md, mg *compress.MergeList
		ld, lg *compress.LookupList
		rl     *compress.RGSList
	}
	cache := map[int]*termStructs{}
	get := func(term int) *termStructs {
		if s, ok := cache[term]; ok {
			return s
		}
		p := e.real.Postings[term]
		s := &termStructs{}
		s.md, _ = compress.NewMergeList(p, compress.Delta)
		s.mg, _ = compress.NewMergeList(p, compress.Gamma)
		s.ld, _ = compress.NewLookupListAuto(p, compress.Delta, 32)
		s.lg, _ = compress.NewLookupListAuto(p, compress.Gamma, 32)
		s.rl, _ = compress.NewRGSList(fam, p, 1, compress.RGSLowbits)
		cache[term] = s
		return s
	}
	names := []string{"RanGroupScan_Lowbits", "Merge_Delta", "Merge_Gamma", "Lookup_Delta", "Lookup_Gamma"}
	totals := make([]time.Duration, len(names))
	worst := make([]time.Duration, len(names))
	queries := 0
	var rawWords, usedWords [5]int
	seenTerm := map[int]bool{}
	for _, q := range e.real.Queries {
		if len(q.Terms) != 2 {
			continue
		}
		queries++
		a, b := get(q.Terms[0]), get(q.Terms[1])
		runs := []func() []uint32{
			func() []uint32 { return compress.IntersectRGS(a.rl, b.rl) },
			func() []uint32 { return compress.IntersectMerge(a.md, b.md) },
			func() []uint32 { return compress.IntersectMerge(a.mg, b.mg) },
			func() []uint32 { return compress.IntersectLookup(a.ld, b.ld) },
			func() []uint32 { return compress.IntersectLookup(a.lg, b.lg) },
		}
		for i, run := range runs {
			run() // warm
			d := timeIt(cfg.Reps, func() { run() })
			totals[i] += d
			if d > worst[i] {
				worst[i] = d
			}
		}
		for _, term := range q.Terms {
			if seenTerm[term] {
				continue
			}
			seenTerm[term] = true
			s := get(term)
			n := len(e.real.Postings[term])
			for i := range names {
				rawWords[i] += n / 2
			}
			usedWords[0] += s.rl.SizeWordsNoDir()
			usedWords[1] += s.md.SizeWords()
			usedWords[2] += s.mg.SizeWords()
			usedWords[3] += s.ld.SizeWords()
			usedWords[4] += s.lg.SizeWords()
		}
	}
	t := &Table{
		ID:      "real-compressed",
		Title:   fmt.Sprintf("Compressed variants over %d two-keyword queries", queries),
		Columns: []string{"variant", "total ms", "Lowbits speedup", "space %% of raw", "worst-case vs Lowbits"},
		Notes: []string{
			"paper: Lowbits 8.4x faster than Merge+δ, 9.1x vs Merge+γ, 5.7x vs Lookup+δ, 6.2x vs Lookup+γ",
			"paper space: Lowbits 66% of uncompressed vs Merge 26/28% and Lookup 35/37%",
			"paper worst-case latency: Merge+δ 5.2x, Merge+γ 5.6x, Lookup+δ 4.4x, Lookup+γ 4.9x of Lowbits",
		},
	}
	for i, name := range names {
		t.AddRow(name, ms(totals[i]),
			ratio(totals[i], totals[0]),
			fmt.Sprintf("%.0f%%", 100*float64(usedWords[i])/float64(rawWords[i])),
			ratio(worst[i], worst[0]))
	}
	return []*Table{t}
}
