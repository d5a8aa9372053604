package harness

import (
	"strings"
	"testing"
	"time"

	"fastintersect/internal/race"
)

// tinyConfig runs experiments at the small scale with single repetitions;
// the full experiment bodies are exercised by TestRegistrySmokes below on a
// few fast entries, and end-to-end by cmd/fsibench.
func tinyConfig() Config {
	return Config{Scale: "small", Seed: 42, Reps: 1}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure/table of the paper's evaluation must have an entry.
	want := []string{
		"fig4", "fig5", "fig6", "ratio", "sizes", "fig7", "fig8",
		"real-compressed", "fig9", "fig10", "fig11", "fig12", "intro-stats",
		"ablation-width", "ablation-m", "ablation-parallel", "storage-sweep",
		"serve-bench", "obs-bench", "overload",
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

// TestServeBench pins the serving benchmark's guarantees: both storage
// modes are measured, every scenario carries non-degenerate throughput and
// allocation numbers, and the schema the CI artifact consumers rely on is
// stable.
func TestServeBench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a corpus and runs timed benchmarks")
	}
	rep := ServeBench(tinyConfig())
	if rep.Schema != "fsibench/serve/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Scenarios) != 6 {
		t.Fatalf("got %d scenarios, want 6 (raw + compressed, each ×{1,16,64} batch)", len(rep.Scenarios))
	}
	storages := map[string]bool{}
	batches := map[int]bool{}
	for _, s := range rep.Scenarios {
		storages[s.Storage] = true
		batches[s.Batch] = true
		if s.NsPerOp <= 0 || s.QPS <= 0 {
			t.Fatalf("%s: degenerate timing (ns/op=%d, qps=%f)", s.Name, s.NsPerOp, s.QPS)
		}
		if s.AllocsPerOp <= 0 || s.AllocsPerOp > 1000 {
			t.Fatalf("%s: implausible allocs/op %d", s.Name, s.AllocsPerOp)
		}
		if s.Docs == 0 || s.Terms == 0 || s.Queries == 0 {
			t.Fatalf("%s: empty corpus accounting", s.Name)
		}
		if s.Batch > 1 && s.SpeedupVsSingle <= 0 {
			t.Fatalf("%s: batch scenario missing the batching delta", s.Name)
		}
	}
	if !storages["raw"] || !storages["compressed"] {
		t.Fatalf("missing storage mode: %v", storages)
	}
	if !batches[1] || !batches[16] || !batches[64] {
		t.Fatalf("missing batch sizes: %v", batches)
	}
}

// TestObsBench is the acceptance check for the observability surface: the
// latency percentiles reconstructed from a /metrics scrape must agree with
// the percentiles the harness measures directly on the same replay, within
// the log2 histogram's bucket resolution. The scraped number is the bucket
// upper bound, so it can sit up to 2x above the measured value; a factor-4
// band on each side absorbs rank granularity and scheduler noise without
// ever letting a broken bucket mapping pass.
func TestObsBench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a corpus and replays thousands of queries")
	}
	rep := ObsBench(tinyConfig())
	if rep.Schema != "fsibench/obs/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("got %d phases, want 2 (replay + churn)", len(rep.Phases))
	}
	for _, p := range rep.Phases {
		if p.Queries == 0 || p.QueriesTotal == 0 {
			t.Fatalf("%s: no queries measured: %+v", p.Name, p)
		}
		checks := []struct {
			pct              string
			measured, scrape float64
		}{
			{"p50", p.MeasuredP50US, p.ScrapeP50US},
			{"p90", p.MeasuredP90US, p.ScrapeP90US},
			{"p99", p.MeasuredP99US, p.ScrapeP99US},
		}
		for _, c := range checks {
			if c.measured <= 0 || c.scrape <= 0 {
				t.Fatalf("%s %s: degenerate percentile (measured %.1f, scrape %.1f)",
					p.Name, c.pct, c.measured, c.scrape)
			}
			if r := c.scrape / c.measured; r < 0.25 || r > 4 {
				t.Errorf("%s %s: scraped %.1fµs vs measured %.1fµs (ratio %.2f, want within bucket resolution)",
					p.Name, c.pct, c.scrape, c.measured, r)
			}
		}
	}
	if rep.Phases[1].Mutations == 0 {
		t.Fatal("churn phase recorded no mutations")
	}
	if rep.Phases[1].MutationsTotal < uint64(rep.Phases[1].Mutations) {
		t.Fatalf("scraped fsi_mutations_total %d < %d mutations performed",
			rep.Phases[1].MutationsTotal, rep.Phases[1].Mutations)
	}
	if rep.Phases[1].QueriesTotal <= rep.Phases[0].QueriesTotal {
		t.Fatal("fsi_queries_total did not advance between phases")
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

// TestCompressBenchSweep pins the storage sweep's guarantees: every
// encoding's intersection is byte-identical to the reference, and the
// adaptive heuristic selects each of Raw, Gamma, Delta, Lowbits and
// Bitseg for at least one density regime.
func TestCompressBenchSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is not -short friendly")
	}
	rep := CompressBench(tinyConfig())
	if rep.Schema != "fsibench/compress/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	chosen := map[string]bool{}
	for _, w := range rep.Workloads {
		if len(w.Encodings) != 5 {
			t.Fatalf("%s: %d encodings measured", w.Name, len(w.Encodings))
		}
		chosen[w.Chosen] = true
		for _, m := range w.Encodings {
			if !m.ResultOK {
				t.Fatalf("%s/%s: intersection diverged from reference", w.Name, m.Encoding)
			}
			if m.BytesPerPosting <= 0 {
				t.Fatalf("%s/%s: bytes/posting = %v", w.Name, m.Encoding, m.BytesPerPosting)
			}
			if m.Chosen != (m.Encoding == w.Chosen) {
				t.Fatalf("%s/%s: chosen flag inconsistent with %q", w.Name, m.Encoding, w.Chosen)
			}
		}
	}
	for _, enc := range []string{"Raw", "Gamma", "Delta", "Lowbits", "Bitseg"} {
		if !chosen[enc] {
			t.Fatalf("no workload selects %s (chosen set: %v)", enc, chosen)
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

// TestSegmentsBench is the acceptance check for the tiered segment
// lifecycle: replaying the same churn stream, the tiered policy must pay
// strictly less write amplification than rebuild-on-every-threshold while
// answering every query identically — and it must actually exercise the
// tier (freezes, and strictly fewer bytes, not merely fewer compactions).
func TestSegmentsBench(t *testing.T) {
	if testing.Short() {
		t.Skip("replays churn streams through four engines")
	}
	rep := SegmentsBench(tinyConfig())
	if rep.Schema != "fsibench/segments/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Scenarios) != 4 {
		t.Fatalf("got %d scenarios, want 4 (2 storages × 2 policies)", len(rep.Scenarios))
	}
	byKey := map[string]SegmentsScenario{}
	for _, s := range rep.Scenarios {
		byKey[s.Storage+"/"+s.Policy] = s
		if s.Adds == 0 || s.Deletes == 0 || s.Queries == 0 {
			t.Fatalf("%s: degenerate replay %+v", s.Name, s)
		}
		if s.IngestedBytes == 0 {
			t.Fatalf("%s: no ingested bytes accounted", s.Name)
		}
	}
	for _, storage := range []string{"raw", "compressed"} {
		tiered, ok := byKey[storage+"/tiered"]
		if !ok {
			t.Fatalf("missing tiered scenario for %s", storage)
		}
		rebuild, ok := byKey[storage+"/rebuild"]
		if !ok {
			t.Fatalf("missing rebuild scenario for %s", storage)
		}
		if tiered.Freezes == 0 {
			t.Errorf("%s: tiered policy never froze a segment", storage)
		}
		if rebuild.Compactions == 0 {
			t.Errorf("%s: rebuild policy never compacted; the comparison is vacuous", storage)
		}
		if tiered.WriteAmp >= rebuild.WriteAmp {
			t.Errorf("%s: tiered write amplification %.2f is not strictly below rebuild's %.2f",
				storage, tiered.WriteAmp, rebuild.WriteAmp)
		}
	}
	if len(rep.Parity) != 2 {
		t.Fatalf("got %d parity entries, want 2", len(rep.Parity))
	}
	for _, p := range rep.Parity {
		if p.Queries == 0 {
			t.Fatalf("%s: parity checked no queries", p.Storage)
		}
		if !p.OK {
			t.Errorf("%s: tiered and rebuild engines disagree on query results", p.Storage)
		}
	}
}

// TestFeedbackBench is the acceptance check for the adaptive planning loop:
// under a drifted corpus the feedback engine's corrected plans must beat the
// frozen mis-calibrated engine, must stop running the under-priced merge
// kernel the frozen engine keeps dispatching, and must not have cost
// anything meaningful before the drift (when the mispriced plans happened
// to be right anyway).
func TestFeedbackBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs adaptation streams and timed benchmarks through five engine phases")
	}
	if race.Enabled {
		// The loop learns from measured kernel timings, which race
		// instrumentation distorts; CI's non-race cost-model drift smoke
		// enforces this test.
		t.Skip("race instrumentation distorts the timings the feedback loop learns from")
	}
	rep := FeedbackBench(tinyConfig())
	if rep.Schema != "fsibench/feedback/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Scenarios) != 5 {
		t.Fatalf("got %d scenarios, want 5 (frozen/feedback ×2 phases + oracle)", len(rep.Scenarios))
	}
	t.Logf("pre-drift ratio %.3f, post-drift ratio %.3f, oracle ratio %.3f",
		rep.PreDriftRatio, rep.PostDriftRatio, rep.OracleRatio)
	byKey := map[string]FeedbackScenario{}
	for _, s := range rep.Scenarios {
		byKey[s.Phase+"/"+s.Engine] = s
		if s.NsPerOp <= 0 || s.QPS <= 0 {
			t.Fatalf("%s/%s: degenerate timing (ns/op=%d)", s.Phase, s.Engine, s.NsPerOp)
		}
	}
	fb := byKey["post-drift/feedback"]
	if fb.Refits == 0 || fb.Observations == 0 {
		t.Fatalf("feedback engine never refit (refits=%d, obs=%d); the loop never engaged", fb.Refits, fb.Observations)
	}
	if fb.MergeCorrection <= 1.5 {
		t.Errorf("merge correction %.2f; want it learned well above 1 (the anchor was under-priced %v×)",
			fb.MergeCorrection, rep.Distortion)
	}
	frozen := byKey["post-drift/frozen"]
	if frozen.MergeExecShare < 0.5 {
		t.Errorf("frozen engine ran merges on only %.0f%% of sampled kernel executions post-drift; the mis-calibration scenario is vacuous",
			100*frozen.MergeExecShare)
	}
	if fb.MergeExecShare >= 0.5 {
		t.Errorf("feedback engine still ran merges on %.0f%% of sampled kernel executions post-drift (frozen: %.0f%%); corrections did not flip the plans",
			100*fb.MergeExecShare, 100*frozen.MergeExecShare)
	}
	if rep.PostDriftRatio >= 1.0 {
		t.Errorf("post-drift feedback/frozen ratio %.3f; corrected plans must beat the frozen mis-calibration", rep.PostDriftRatio)
	}
	// 1.05 is the design budget; CI boxes are noisy, so the hard gate allows
	// a little slack on top while still catching a loop that costs real time.
	if rep.PreDriftRatio > 1.10 {
		t.Errorf("pre-drift feedback/frozen ratio %.3f; the loop must be ~free when plans are already right", rep.PreDriftRatio)
	}
}
