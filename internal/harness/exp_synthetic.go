package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"fastintersect"
	"fastintersect/internal/core"
	"fastintersect/internal/workload"
	"fastintersect/internal/xhash"
)

// prepLists preprocesses raw sets through the public API.
func prepLists(cfg Config, m int, raw ...[]uint32) []*fastintersect.List {
	out := make([]*fastintersect.List, len(raw))
	for i, s := range raw {
		l, err := fastintersect.Preprocess(s, fastintersect.WithSeed(cfg.Seed), fastintersect.WithHashImages(m))
		if err != nil {
			panic(err) // generator bug; cannot happen on generated sets
		}
		out[i] = l
	}
	return out
}

// timeAlgo warms the algorithm's structures (one untimed run builds every
// lazy structure) and returns the minimum intersection time over cfg.Reps
// runs, matching the paper's methodology of timing the online phase only.
func timeAlgo(cfg Config, algo fastintersect.Algorithm, lists []*fastintersect.List) time.Duration {
	if _, err := fastintersect.IntersectWith(algo, lists...); err != nil {
		panic(fmt.Sprintf("%v: %v", algo, err))
	}
	return timeIt(cfg.Reps, func() {
		_, _ = fastintersect.IntersectWith(algo, lists...)
	})
}

// fig4Algorithms are the techniques plotted in Figure 4 (BPP included; the
// paper drops it from later graphs for being off-scale).
var fig4Algorithms = []fastintersect.Algorithm{
	fastintersect.Merge, fastintersect.SkipList, fastintersect.Hash,
	fastintersect.IntGroup, fastintersect.BPP, fastintersect.Adaptive,
	fastintersect.SvS, fastintersect.Lookup,
	fastintersect.RanGroup, fastintersect.RanGroupScan,
}

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Varying the set size (2 sets, equal sizes, r = 1%)",
		Paper: "Figure 4",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Varying the intersection size",
		Paper: "Figure 5",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Varying the number of keywords (k = 2, 3, 4)",
		Paper: "Figure 6",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "ratio",
		Title: "Varying the set size ratio sr = |L2|/|L1|",
		Paper: "§4 'Varying the Sets Size Ratios' (text)",
		Run:   runRatio,
	})
	register(Experiment{
		ID:    "sizes",
		Title: "Size of the data structures",
		Paper: "§4 'Size of the Data Structure'",
		Run:   runSizes,
	})
}

func fig4Sizes(cfg Config) []int {
	if cfg.Full() {
		return []int{1_000_000, 2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000}
	}
	return []int{125_000, 250_000, 500_000, 1_000_000, 2_000_000}
}

func runFig4(cfg Config) []*Table {
	algos := cfg.FilterAlgos(fig4Algorithms)
	t := &Table{
		ID:      "fig4",
		Title:   "Intersection time (ms), 2 sets of equal size, |L1∩L2| = 1%",
		Columns: append([]string{"size"}, algoNames(algos)...),
	}
	t.NoteFilter(cfg, algos)
	rng := xhash.NewRNG(cfg.Seed)
	sizes := fig4Sizes(cfg)
	times := make([][]time.Duration, len(sizes))
	for r, n := range sizes {
		a, b := workload.PairWithIntersection(workload.DefaultUniverse, n, n, n/100, rng)
		lists := prepLists(cfg, 4, a, b)
		row := []string{fmt.Sprintf("%d", n)}
		for _, algo := range algos {
			d := timeAlgo(cfg, algo, lists)
			times[r] = append(times[r], d)
			row = append(row, ms(d))
		}
		t.AddRow(row...)
	}
	if note := fig4VerdictNote(algos, sizes, times); note != "" {
		t.Notes = append(t.Notes, note)
	}
	return []*Table{t}
}

// fig4Fastest are the algorithms Figure 4 shows fastest, 40–50% below
// Merge at every size.
var fig4Fastest = []fastintersect.Algorithm{fastintersect.RanGroupScan, fastintersect.IntGroup}

// fig4VerdictNote reads each of fig4Fastest's ratio to Merge at every size
// from times (times[r][c] timed algos[c] at sizes[r]) and says "reproduced"
// only when both are below Merge at every size, as in the paper. It is
// empty when Merge or either of them is not among algos.
func fig4VerdictNote(algos []fastintersect.Algorithm, sizes []int, times [][]time.Duration) string {
	mi := slices.Index(algos, fastintersect.Merge)
	if mi < 0 || len(times) == 0 {
		return ""
	}
	var parts, above []string
	for _, algo := range fig4Fastest {
		ai := slices.Index(algos, algo)
		if ai < 0 {
			return ""
		}
		lo, hi := math.Inf(1), 0.0
		for r, row := range times {
			x := float64(row[ai]) / float64(max(row[mi], 1))
			lo, hi = min(lo, x), max(hi, x)
			if x >= 1 {
				above = append(above, fmt.Sprintf("%v at size %d (%.2f×)", algo, sizes[r], x))
			}
		}
		parts = append(parts, fmt.Sprintf("%v at %.2f–%.2f× Merge", algo, lo, hi))
	}
	verdict := "both below Merge at every size, as in the paper (40–50% below): reproduced"
	if len(above) > 0 {
		verdict = "not below Merge at every size, unlike the paper (40–50% below): not reproduced; at or above Merge: " + strings.Join(above, ", ")
	}
	return fmt.Sprintf("fig4: %s — %s", strings.Join(parts, ", "), verdict)
}

var fig5Algorithms = []fastintersect.Algorithm{
	fastintersect.Merge, fastintersect.SkipList, fastintersect.Hash,
	fastintersect.Adaptive, fastintersect.SvS, fastintersect.Lookup,
	fastintersect.IntGroup, fastintersect.RanGroup, fastintersect.RanGroupScan,
}

func runFig5(cfg Config) []*Table {
	n := 1_000_000
	if cfg.Full() {
		n = 10_000_000
	}
	algos := cfg.FilterAlgos(fig5Algorithms)
	t := &Table{
		ID:      "fig5",
		Title:   fmt.Sprintf("Intersection time (ms), 2 sets of %d elements, varying r", n),
		Columns: append([]string{"r"}, algoNames(algos)...),
		Notes: []string{
			"paper shape: RanGroupScan/IntGroup best for r < 0.7n; Merge best beyond, with RanGroupScan a close 2nd up to r = n",
		},
	}
	t.NoteFilter(cfg, algos)
	rng := xhash.NewRNG(cfg.Seed + 5)
	rs := []int{500, n / 100, n / 10, 3 * n / 10, n / 2, 7 * n / 10, 9 * n / 10, n}
	for _, r := range rs {
		a, b := workload.PairWithIntersection(workload.DefaultUniverse, n, n, r, rng)
		lists := prepLists(cfg, 4, a, b)
		row := []string{fmt.Sprintf("%d", r)}
		for _, algo := range algos {
			row = append(row, ms(timeAlgo(cfg, algo, lists)))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

var fig6Algorithms = []fastintersect.Algorithm{
	fastintersect.Merge, fastintersect.SkipList, fastintersect.Hash,
	fastintersect.SvS, fastintersect.Adaptive, fastintersect.BaezaYates,
	fastintersect.SmallAdaptive, fastintersect.Lookup,
	fastintersect.RanGroup, fastintersect.RanGroupScan,
}

func runFig6(cfg Config) []*Table {
	n := 1_000_000
	if cfg.Full() {
		n = 10_000_000
	}
	algos := cfg.FilterAlgos(fig6Algorithms)
	t := &Table{
		ID:      "fig6",
		Title:   fmt.Sprintf("Intersection time (ms), k sets of %d uniform IDs, m = 2", n),
		Columns: append([]string{"k"}, algoNames(algos)...),
		Notes: []string{
			"paper shape: RanGroupScan fastest, margin growing with k; RanGroup next; Merge strong among the rest",
		},
	}
	t.NoteFilter(cfg, algos)
	rng := xhash.NewRNG(cfg.Seed + 6)
	for _, k := range []int{2, 3, 4} {
		ns := make([]int, k)
		for i := range ns {
			ns[i] = n
		}
		raw := workload.RandomSets(workload.DefaultUniverse, ns, rng)
		lists := prepLists(cfg, 2, raw...)
		row := []string{fmt.Sprintf("%d", k)}
		for _, algo := range algos {
			row = append(row, ms(timeAlgo(cfg, algo, lists)))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

var ratioAlgorithms = []fastintersect.Algorithm{
	fastintersect.Merge, fastintersect.Hash, fastintersect.SvS,
	fastintersect.Lookup, fastintersect.RanGroup,
	fastintersect.RanGroupScan, fastintersect.HashBin,
}

func runRatio(cfg Config) []*Table {
	n2 := 1_000_000
	if cfg.Full() {
		n2 = 10_000_000
	}
	algos := cfg.FilterAlgos(ratioAlgorithms)
	t := &Table{
		ID:      "ratio",
		Title:   fmt.Sprintf("Intersection time (ms), |L2| = %d, varying sr = |L2|/|L1|, r = 1%%·|L1|", n2),
		Columns: append([]string{"sr", "|L1|"}, algoNames(algos)...),
		Notes: []string{
			"paper shape: RanGroupScan best for sr < 32; Hash/Lookup best for sr ≥ 100",
		},
	}
	t.NoteFilter(cfg, algos)
	rng := xhash.NewRNG(cfg.Seed + 7)
	srs := []int{1, 4, 16, 32, 64, 128, 256, 625}
	times := make([][]time.Duration, len(srs))
	for r, sr := range srs {
		n1 := n2 / sr
		if n1 < 16 {
			n1 = 16
		}
		a, b := workload.PairWithIntersection(workload.DefaultUniverse, n1, n2, n1/100, rng)
		lists := prepLists(cfg, 4, a, b)
		row := []string{fmt.Sprintf("%d", sr), fmt.Sprintf("%d", n1)}
		for _, algo := range algos {
			d := timeAlgo(cfg, algo, lists)
			times[r] = append(times[r], d)
			row = append(row, ms(d))
		}
		t.AddRow(row...)
	}
	for _, algo := range []fastintersect.Algorithm{fastintersect.RanGroupScan, fastintersect.HashBin} {
		if note := ratioCloseNote(algo, algos, srs, times); note != "" {
			t.Notes = append(t.Notes, note)
		}
	}
	return []*Table{t}
}

// closeRatio is the most times the fastest algorithm's time an algorithm
// may take on a row for the ratio notes to call it close to the best.
const closeRatio = 2

// ratioCloseNote reads algo's worst ratio to the fastest algorithm of any
// row from times (times[r][c] timed algos[c] at size ratio srs[r]) and says
// whether algo stays close to the best everywhere, as the paper reports of
// RanGroupScan and HashBin. It is empty when algo is not among algos.
func ratioCloseNote(algo fastintersect.Algorithm, algos []fastintersect.Algorithm, srs []int, times [][]time.Duration) string {
	ai := slices.Index(algos, algo)
	if ai < 0 || len(times) == 0 {
		return ""
	}
	worst, wr, wb := 0.0, 0, 0
	for r, row := range times {
		best := 0
		for c, d := range row {
			if d < row[best] {
				best = c
			}
		}
		if x := float64(row[ai]) / float64(max(row[best], 1)); x > worst {
			worst, wr, wb = x, r, best
		}
	}
	verdict := fmt.Sprintf("%v is close to the best everywhere, as in the paper", algo)
	if worst > closeRatio {
		verdict = fmt.Sprintf("%v is not close to the best everywhere here, unlike the paper", algo)
	}
	return fmt.Sprintf("%v's worst row is sr = %d, at %.2f× %v's time: %s", algo, srs[wr], worst, algos[wb], verdict)
}

func runSizes(cfg Config) []*Table {
	n := 1_000_000
	rng := xhash.NewRNG(cfg.Seed + 8)
	set := workload.RandomSets(workload.DefaultUniverse, []int{n}, rng)[0]
	fam := core.NewFamily(cfg.Seed, core.MaxImageCount)
	ig, _ := core.NewIntGroupList(fam, set, false)
	rg, _ := core.NewRanGroupList(fam, set)
	hb, _ := core.NewHashBinList(fam, set)
	rgs1, _ := core.NewRanGroupScanList(fam, set, 1)
	rgs2, _ := core.NewRanGroupScanList(fam, set, 2)
	rgs4, _ := core.NewRanGroupScanList(fam, set, 4)
	raw := n / 2 // 64-bit words of a raw uint32 posting list
	t := &Table{
		ID:      "sizes",
		Title:   fmt.Sprintf("Structure sizes for one set of %d elements (64-bit words)", n),
		Columns: []string{"structure", "words", "vs raw postings"},
		Notes: []string{
			"paper overheads vs an uncompressed posting list: RanGroupScan m=2 +37%, m=4 +63%, IntGroup +75%, RanGroup +87%",
			"the paper counts one machine word per posting; this table counts actual bytes (uint32 postings), so ratios differ by ≈2x on element storage",
		},
	}
	add := func(name string, words int) {
		t.AddRow(name, fmt.Sprintf("%d", words), fmt.Sprintf("%.2fx", float64(words)/float64(raw)))
	}
	add("raw postings", raw)
	add("RanGroupScan m=1", rgs1.SizeWords())
	add("RanGroupScan m=2", rgs2.SizeWords())
	add("RanGroupScan m=4", rgs4.SizeWords())
	add("IntGroup", ig.SizeWords())
	add("RanGroup", rg.SizeWords())
	add("HashBin", hb.SizeWords())
	return []*Table{t}
}

// algoNames renders algorithm column headers.
func algoNames(algos []fastintersect.Algorithm) []string {
	out := make([]string, len(algos))
	for i, a := range algos {
		out[i] = a.String()
	}
	return out
}
