package harness

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"fastintersect"
	"fastintersect/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Normalized execution time on the (simulated) real workload",
		Paper: "Figure 7",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Real-workload breakdown by query length",
		Paper: "Figure 12 (Appendix C.2)",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "intro-stats",
		Title: "Workload statistics vs the paper's reported query characteristics",
		Paper: "§1 Bing Shopping statistic and §4 query characteristics",
		Run:   runIntroStats,
	})
}

// realAlgorithms are the bars of Figure 7.
var realAlgorithms = []fastintersect.Algorithm{
	fastintersect.Merge, fastintersect.SkipList, fastintersect.Hash,
	fastintersect.SvS, fastintersect.Adaptive, fastintersect.BaezaYates,
	fastintersect.SmallAdaptive, fastintersect.Lookup, fastintersect.BPP,
	fastintersect.RanGroup, fastintersect.RanGroupScan, fastintersect.HashBin,
}

// realEnv caches the simulated corpus, preprocessed posting lists and the
// per-query timing matrix, shared between fig7 and fig12.
type realEnv struct {
	real  *workload.Real
	lists map[int]*fastintersect.List
	times [][]time.Duration // times[queryIdx][algoIdx]
}

var (
	realMu   sync.Mutex
	realEnvs = map[string]*realEnv{}
)

func realConfig(cfg Config) workload.RealConfig {
	rc := workload.SmallRealConfig()
	if cfg.Full() {
		rc = workload.FullRealConfig()
	} else {
		rc.NumQueries = 400 // enough queries for stable winner statistics
	}
	rc.Seed = cfg.Seed
	return rc
}

func getRealEnv(cfg Config) *realEnv {
	realMu.Lock()
	defer realMu.Unlock()
	key := fmt.Sprintf("%s-%d", cfg.Scale, cfg.Seed)
	if e, ok := realEnvs[key]; ok {
		return e
	}
	e := &realEnv{
		real:  workload.NewReal(realConfig(cfg)),
		lists: map[int]*fastintersect.List{},
	}
	e.measure(cfg)
	realEnvs[key] = e
	return e
}

// list returns the preprocessed list of a term, building it on first use.
func (e *realEnv) list(term int) *fastintersect.List {
	if l, ok := e.lists[term]; ok {
		return l
	}
	l, err := fastintersect.Preprocess(e.real.Postings[term],
		fastintersect.WithSeed(fastintersect.DefaultSeed), fastintersect.WithHashImages(4))
	if err != nil {
		panic(err)
	}
	e.lists[term] = l
	return l
}

// measure fills the per-query timing matrix.
func (e *realEnv) measure(cfg Config) {
	e.times = make([][]time.Duration, len(e.real.Queries))
	for qi, q := range e.real.Queries {
		lists := make([]*fastintersect.List, len(q.Terms))
		for i, term := range q.Terms {
			lists[i] = e.list(term)
		}
		row := make([]time.Duration, len(realAlgorithms))
		for ai, algo := range realAlgorithms {
			// Warm (builds lazy structures), then time.
			if _, err := fastintersect.IntersectWith(algo, lists...); err != nil {
				panic(err)
			}
			row[ai] = timeIt(cfg.Reps, func() {
				_, _ = fastintersect.IntersectWith(algo, lists...)
			})
		}
		e.times[qi] = row
	}
}

// aggregate sums times and counts wins over the query subset for which
// keep(qi) is true.
func (e *realEnv) aggregate(keep func(int) bool) (totals []time.Duration, wins []int, count int) {
	totals = make([]time.Duration, len(realAlgorithms))
	wins = make([]int, len(realAlgorithms))
	for qi, row := range e.times {
		if !keep(qi) {
			continue
		}
		count++
		best := 0
		for ai, d := range row {
			totals[ai] += d
			if d < row[best] {
				best = ai
			}
		}
		wins[best]++
	}
	return totals, wins, count
}

func realTable(id, title string, totals []time.Duration, wins []int, count int) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"algorithm", "total ms", "normalized vs Merge", "% queries fastest"},
	}
	mergeIdx := 0 // Merge is realAlgorithms[0]
	for ai, algo := range realAlgorithms {
		t.AddRow(algo.String(), ms(totals[ai]), ratio(totals[ai], totals[mergeIdx]),
			fmt.Sprintf("%.1f", 100*float64(wins[ai])/float64(count)))
	}
	return t
}

func runFig7(cfg Config) []*Table {
	e := getRealEnv(cfg)
	totals, wins, count := e.aggregate(func(int) bool { return true })
	t := realTable("fig7", fmt.Sprintf("All %d queries (Merge normalized to 1)", count), totals, wins, count)
	t.Notes = []string{
		"paper shape: RanGroup fastest on 16% of queries, HashBin on 7.7%; Lookup the best non-paper algorithm (6.4%), then SvS (3.6%)",
		fig7WinnerNote(wins),
		hashBinNote(totals),
	}
	return []*Table{t}
}

// paperRanGroupScanShare is the share of Fig. 7's queries on which the paper
// measured RanGroupScan fastest, in percent.
const paperRanGroupScanShare = 61.6

// fig7WinnerNote names the algorithm fastest on the most queries from wins
// (indexed like realAlgorithms) and sets RanGroupScan's share against the
// paper's, saying "reproduced" only when RanGroupScan wins the most
// queries, as it does in the paper. A tie goes to RanGroupScan.
func fig7WinnerNote(wins []int) string {
	rgs := slices.Index(realAlgorithms, fastintersect.RanGroupScan)
	top, count := rgs, 0
	for ai, w := range wins {
		count += w
		if w > wins[top] {
			top = ai
		}
	}
	share := func(ai int) float64 { return 100 * float64(wins[ai]) / float64(max(count, 1)) }
	if top == rgs {
		return fmt.Sprintf("RanGroupScan is fastest on the most queries (%.1f%%, the paper's %.1f%%): the paper's best overall is reproduced",
			share(rgs), paperRanGroupScanShare)
	}
	return fmt.Sprintf("%v is fastest on the most queries (%.1f%%), RanGroupScan on %.1f%% against the paper's %.1f%%: the paper's RanGroupScan best overall is not reproduced",
		realAlgorithms[top], share(top), share(rgs), paperRanGroupScanShare)
}

// hashBinNote reads HashBin's total time against Merge's from totals
// (indexed like realAlgorithms) and says whether HashBin beats Merge, as
// it does in the paper.
func hashBinNote(totals []time.Duration) string {
	hb, merge := totals[slices.Index(realAlgorithms, fastintersect.HashBin)], totals[0] // Merge is realAlgorithms[0]
	verdict := "HashBin does not beat Merge here, unlike the paper"
	if hb < merge {
		verdict = "HashBin beats Merge, as in the paper"
	}
	return fmt.Sprintf("HashBin's total time is %s× Merge's: %s", ratio(hb, merge), verdict)
}

func runFig12(cfg Config) []*Table {
	e := getRealEnv(cfg)
	var out []*Table
	for _, k := range []int{2, 3, 4, 5} {
		totals, wins, count := e.aggregate(func(qi int) bool {
			return len(e.real.Queries[qi].Terms) == k
		})
		if count == 0 {
			continue
		}
		t := realTable(fmt.Sprintf("fig12-k%d", k),
			fmt.Sprintf("%d-keyword queries (%d of them)", k, count), totals, wins, count)
		if k == 2 {
			t.Notes = []string{"paper shape: Merge degrades as k grows; Hash improves with k but stays near-worst; RanGroup ≈ RanGroupScan at k = 4"}
		}
		out = append(out, t)
	}
	return out
}

func runIntroStats(cfg Config) []*Table {
	e := getRealEnv(cfg)
	st := e.real.ComputeStats()
	t := &Table{
		ID:      "intro-stats",
		Title:   "Simulated workload statistics vs the paper's measurements",
		Columns: []string{"statistic", "paper", "simulated"},
	}
	add := func(name, paper string, val float64) {
		t.AddRow(name, paper, fmt.Sprintf("%.3f", val))
	}
	total := 0
	for _, c := range st.QueriesByK {
		total += c
	}
	for _, k := range sortedKeys(st.QueriesByK) {
		paper := map[int]string{2: "0.68", 3: "0.23", 4: "0.06", 5: "~0.03"}[k]
		add(fmt.Sprintf("fraction of %d-keyword queries", k), paper,
			float64(st.QueriesByK[k])/float64(total))
	}
	add("avg |L1|/|L2|, k=2", "0.21", st.AvgRatioL1L2[2])
	add("avg |L1|/|L2|, k=3", "0.31", st.AvgRatioL1L2[3])
	add("avg |L1|/|L3|, k=3", "0.09", st.AvgRatioL1Lk[3])
	add("avg |L1|/|L2|, k=4", "0.36", st.AvgRatioL1L2[4])
	add("avg |L1|/|L4|, k=4", "0.06", st.AvgRatioL1Lk[4])
	add("avg r/|L1|", "0.19", st.AvgInterOverL1)
	add("queries with r ≤ min-df/10", "0.94 (Bing Shopping)", st.Frac10xSmaller)
	add("queries with r ≤ min-df/100", "0.76 (Bing Shopping)", st.Frac100xSmaller)
	return []*Table{t}
}
