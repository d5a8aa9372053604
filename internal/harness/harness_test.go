package harness

import (
	"slices"
	"strings"
	"testing"
	"time"

	"fastintersect"
)

// tinyConfig runs experiments at the small scale with single repetitions;
// the full experiment bodies are exercised by TestExperimentSmokes below on a
// few fast entries, and end-to-end by cmd/fsibench.
func tinyConfig() Config {
	return Config{Scale: "small", Seed: 42, Reps: 1}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure/table of the paper's evaluation must have an entry.
	want := []string{
		"fig4", "fig5", "fig6", "ratio", "sizes", "fig7", "fig8",
		"real-compressed", "fig9", "fig10", "fig11", "fig12", "intro-stats",
		"ablation-width", "ablation-m", "ablation-parallel",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Fatalf("registry has %d entries, want ≥ %d", len(IDs()), len(want))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown experiment found")
	}
}

func TestTablePrint(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bee"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var sb strings.Builder
	tb.Print(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a    bee", "333  4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	d := timeIt(3, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 3 {
		t.Fatalf("f called %d times", calls)
	}
	if d < 500*time.Microsecond {
		t.Fatalf("implausible minimum %v", d)
	}
	if timeIt(0, func() {}) < 0 {
		t.Fatal("negative duration")
	}
}

func TestFormatters(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.500" {
		t.Fatalf("ms = %q", got)
	}
	if got := ratio(2*time.Second, time.Second); got != "2.00" {
		t.Fatalf("ratio = %q", got)
	}
	if got := ratio(time.Second, 0); got != "inf" {
		t.Fatalf("ratio/0 = %q", got)
	}
}

func TestSortedKeys(t *testing.T) {
	got := sortedKeys(map[int]string{3: "c", 1: "a", 2: "b"})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("sortedKeys = %v", got)
	}
}

// TestNoteFilter checks the -algos warning on synthetic configs: a filter
// that matches part of an experiment's list names each requested algorithm
// the table drops, one that matches none says so and that nothing was
// timed, and no filter adds no note.
func TestNoteFilter(t *testing.T) {
	def := []fastintersect.Algorithm{fastintersect.Merge, fastintersect.Hash, fastintersect.RanGroupScan}
	for _, tc := range []struct {
		name  string
		algos []fastintersect.Algorithm
		want  []string
	}{
		{"partial", []fastintersect.Algorithm{fastintersect.Merge, fastintersect.BitProbe, fastintersect.Bitseg, fastintersect.BitProbe},
			[]string{"warning: -algos requested BitProbe, Bitseg, which this experiment does not time"}},
		{"none", []fastintersect.Algorithm{fastintersect.BitProbe},
			[]string{"warning: -algos requested BitProbe, which this experiment does not time; no timings measured"}},
		{"all", []fastintersect.Algorithm{fastintersect.Hash, fastintersect.Merge}, nil},
		{"no-filter", nil, nil},
	} {
		cfg := Config{Algos: tc.algos}
		tb := &Table{}
		tb.NoteFilter(cfg, cfg.FilterAlgos(def))
		if !slices.Equal(tb.Notes, tc.want) {
			t.Errorf("%s: notes %q, want %q", tc.name, tb.Notes, tc.want)
		}
	}
}

// TestExperimentSmokes runs the cheapest experiments end to end so the
// harness plumbing (workload generation, preprocessing, timing, table
// building) is covered by `go test`.
func TestExperimentSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short friendly")
	}
	cfg := tinyConfig()
	for _, id := range []string{"sizes", "ablation-width", "ablation-m"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tables := e.Run(cfg)
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: table %s has no rows", id, tb.ID)
			}
			var sb strings.Builder
			tb.Print(&sb)
			if !strings.Contains(sb.String(), tb.ID) {
				t.Fatalf("%s: print missing ID", id)
			}
		}
	}
}

// TestRatioHashBinNote checks that the ratio experiment's HashBin note
// follows the table it annotates, on one synthetic table each way.
func TestRatioHashBinNote(t *testing.T) {
	algos := []fastintersect.Algorithm{fastintersect.Merge, fastintersect.Hash, fastintersect.HashBin}
	srs := []int{1, 625}
	msec := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	for _, tc := range []struct {
		times [][]time.Duration
		want  string
	}{
		{
			[][]time.Duration{{msec(16), msec(30), msec(20)}, {msec(2.7), msec(0.02), msec(0.03)}},
			"HashBin's worst row is sr = 625, at 1.50× Hash's time: HashBin is close to the best everywhere, as in the paper",
		},
		{
			[][]time.Duration{{msec(16), msec(30), msec(202)}, {msec(2.7), msec(0.02), msec(0.65)}},
			"HashBin's worst row is sr = 625, at 32.50× Hash's time: HashBin is not close to the best everywhere here, unlike the paper",
		},
	} {
		if got := ratioCloseNote(fastintersect.HashBin, algos, srs, tc.times); got != tc.want {
			t.Errorf("times %v: note %q, want %q", tc.times, got, tc.want)
		}
	}
	if got := ratioCloseNote(fastintersect.HashBin, algos[:2], srs, [][]time.Duration{{1, 2}, {3, 4}}); got != "" {
		t.Errorf("HashBin filtered out: note %q, want none", got)
	}
}

// TestRatioRanGroupScanNote checks the ratio experiment's RanGroupScan note
// on one synthetic table each way: close to the best at every size ratio,
// as the paper reports, and far behind Hash at sr = 625.
func TestRatioRanGroupScanNote(t *testing.T) {
	algos := []fastintersect.Algorithm{fastintersect.Merge, fastintersect.Hash, fastintersect.RanGroupScan}
	srs := []int{1, 625}
	msec := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	for _, tc := range []struct {
		times [][]time.Duration
		want  string
	}{
		{
			[][]time.Duration{{msec(16), msec(30), msec(8)}, {msec(2.7), msec(0.02), msec(0.025)}},
			"RanGroupScan's worst row is sr = 625, at 1.25× Hash's time: RanGroupScan is close to the best everywhere, as in the paper",
		},
		{
			[][]time.Duration{{msec(16), msec(30), msec(8)}, {msec(2.7), msec(0.02), msec(5.3)}},
			"RanGroupScan's worst row is sr = 625, at 265.00× Hash's time: RanGroupScan is not close to the best everywhere here, unlike the paper",
		},
	} {
		if got := ratioCloseNote(fastintersect.RanGroupScan, algos, srs, tc.times); got != tc.want {
			t.Errorf("times %v: note %q, want %q", tc.times, got, tc.want)
		}
	}
}

// TestFig4VerdictNote checks fig4's verdict on one synthetic table each
// way: RanGroupScan and IntGroup below Merge at every size, as the paper
// reports, and IntGroup above Merge at one size. The verdict needs Merge
// and both algorithms among the timed columns.
func TestFig4VerdictNote(t *testing.T) {
	algos := []fastintersect.Algorithm{fastintersect.Merge, fastintersect.Hash, fastintersect.IntGroup, fastintersect.RanGroupScan}
	sizes := []int{125_000, 250_000}
	msec := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	for _, tc := range []struct {
		times [][]time.Duration
		want  string
	}{
		{
			[][]time.Duration{{msec(1), msec(3), msec(0.6), msec(0.53)}, {msec(2), msec(6), msec(1.6), msec(1.42)}},
			"fig4: RanGroupScan at 0.53–0.71× Merge, IntGroup at 0.60–0.80× Merge — both below Merge at every size, as in the paper (40–50% below): reproduced",
		},
		{
			[][]time.Duration{{msec(1), msec(3), msec(0.6), msec(0.53)}, {msec(2), msec(6), msec(2.2), msec(1.42)}},
			"fig4: RanGroupScan at 0.53–0.71× Merge, IntGroup at 0.60–1.10× Merge — not below Merge at every size, unlike the paper (40–50% below): not reproduced; at or above Merge: IntGroup at size 250000 (1.10×)",
		},
	} {
		if got := fig4VerdictNote(algos, sizes, tc.times); got != tc.want {
			t.Errorf("times %v:\nnote %q\nwant %q", tc.times, got, tc.want)
		}
	}
	if got := fig4VerdictNote(algos[:3], sizes, [][]time.Duration{{1, 2, 3}, {4, 5, 6}}); got != "" {
		t.Errorf("RanGroupScan filtered out: note %q, want none", got)
	}
}

// TestFig7WinnerNote checks fig7's winner note on synthetic win counts (one
// per realAlgorithms entry) each way: RanGroupScan winning the most
// queries, as in the paper, and Hash winning them.
func TestFig7WinnerNote(t *testing.T) {
	wins := func(counts map[fastintersect.Algorithm]int) []int {
		w := make([]int, len(realAlgorithms))
		for a, n := range counts {
			w[slices.Index(realAlgorithms, a)] = n
		}
		return w
	}
	for _, tc := range []struct {
		wins []int
		want string
	}{
		{
			wins(map[fastintersect.Algorithm]int{fastintersect.RanGroupScan: 620, fastintersect.RanGroup: 160, fastintersect.Hash: 220}),
			"RanGroupScan is fastest on the most queries (62.0%, the paper's 61.6%): the paper's best overall is reproduced",
		},
		{
			wins(map[fastintersect.Algorithm]int{fastintersect.Hash: 940, fastintersect.RanGroupScan: 15, fastintersect.Merge: 45}),
			"Hash is fastest on the most queries (94.0%), RanGroupScan on 1.5% against the paper's 61.6%: the paper's RanGroupScan best overall is not reproduced",
		},
	} {
		if got := fig7WinnerNote(tc.wins); got != tc.want {
			t.Errorf("wins %v: note %q, want %q", tc.wins, got, tc.want)
		}
	}
}

// TestFig7HashBinNote checks that fig7's HashBin note follows the table it
// annotates, on one synthetic table each way.
func TestFig7HashBinNote(t *testing.T) {
	totals := func(merge, hashBin time.Duration) []time.Duration {
		out := make([]time.Duration, len(realAlgorithms))
		for i := range out {
			out[i] = time.Millisecond
		}
		out[0], out[len(out)-1] = merge, hashBin // Merge first, HashBin last
		return out
	}
	for _, tc := range []struct {
		merge, hashBin time.Duration
		want           string
	}{
		{10 * time.Millisecond, 4 * time.Millisecond, "HashBin's total time is 0.40× Merge's: HashBin beats Merge, as in the paper"},
		{10 * time.Millisecond, 70700 * time.Microsecond, "HashBin's total time is 7.07× Merge's: HashBin does not beat Merge here, unlike the paper"},
	} {
		if got := hashBinNote(totals(tc.merge, tc.hashBin)); got != tc.want {
			t.Errorf("Merge %v, HashBin %v: note %q, want %q", tc.merge, tc.hashBin, got, tc.want)
		}
	}
}
