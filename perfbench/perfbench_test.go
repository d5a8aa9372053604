package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"fastintersect/internal/workload"
)

// tinyScale shrinks a run to a 20k-document corpus so every workload, traced
// and untraced, finishes in seconds. Churn still gets several freezes and
// merges per shard.
func tinyScale() scale {
	c := workload.SmallRealConfig()
	c.NumDocs, c.NumTerms, c.NumQueries = 20_000, 2_000, 3_000
	return scale{corpus: c, opsFactor: 0.05, setupReps: 3, replays: 64, writeProbe: 128, probes: 16, rechecks: 64, checkEvery: 4}
}

// declared is BENCHMARK.json's metric list: name → unit.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyRun(t *testing.T, wl string, trace bool) *report {
	t.Helper()
	rep, err := runBench(options{workload: wl, seed: defaultSeed, seconds: 10, trace: trace, scale: tinyScale(), log: io.Discard})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", wl, trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, trace, rep.Correct, rep.Failed, rep.Attempted)
	}
	return rep
}

func checkMetrics(t *testing.T, wl string, got metricSet, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", wl, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", wl, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", wl, name)
		}
	}
}

// TestWorkloads runs every declared workload untraced and traced on the
// tiny corpus: all declared metrics come out with their units, every answer
// checks, and the traced spans nest.
func TestWorkloads(t *testing.T) {
	d := readDeclared(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain := tinyRun(t, w.Name, false)
			checkMetrics(t, w.Name, plain.Metrics, e2e)
			for name, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			traced := tinyRun(t, w.Name, true)
			checkMetrics(t, w.Name, traced.Metrics, layers)
			if v := traced.Metrics["error_rate"].Value; v != 0 {
				t.Errorf("error_rate = %v", v)
			}
			if len(traced.missing) > 0 {
				t.Errorf("series missing: %v", traced.missing)
			}
			if err := traced.tracer.checkNesting(); err != nil {
				t.Error(err)
			}
			stats := traced.tracer.summarize()
			for _, n := range []spanName{spOpQuery, spEngineQuery, spPlanParse, spKernelMerge, spKernelBitseg, spCompress, spSetupNew, spSetupLoad, spSetupInstall} {
				if stats[n].count == 0 {
					t.Errorf("no %s spans", spanNames[n])
				}
			}
			merges := traced.Metrics["segment.merges"].Value
			if (w.Name == "churn") != (merges > 0) {
				t.Errorf("segment.merges = %v", merges)
			}
		})
	}
}

// TestNestingCheck shows the nesting check rejects a child that outlives
// its parent or carries another request id.
func TestNestingCheck(t *testing.T) {
	for _, c := range []span{
		{start: 5, end: 20, parent: 1, req: 1},
		{start: 5, end: 8, parent: 1, req: 2},
	} {
		tr := newTracer()
		b := tr.buffer(2)
		b.spans = append(b.spans, span{start: 0, end: 10, req: 1}, c)
		if err := tr.checkNesting(); err == nil {
			t.Errorf("child %+v of [0,10] req 1 passed the check", c)
		}
	}
}

// TestMissingSeries: a series the engine stops exporting is reported as
// missing and its metrics read -1; the run does not fail on it.
func TestMissingSeries(t *testing.T) {
	in, err := generate(workloads[0], options{seed: defaultSeed, seconds: 1, scale: tinyScale()})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := setup(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := replayChecked(e, in, options{seed: defaultSeed, scale: tinyScale(), log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []map[string]float64{a.before, a.after} {
		delete(m, "fsi_cache_hits_total")
		delete(m, `fsi_query_stage_seconds_sum{stage="exec"}`)
	}
	a.segOK = false
	m := metricSet{}
	missing := seriesMetrics(m, a)
	want := []string{"fsi_cache_hits_total", `fsi_query_stage_seconds_sum{stage="exec"}`, `fsi_segments{shard="*"}`}
	if len(missing) != len(want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
	for _, name := range []string{"engine.cache.hit_ratio", "engine.stage.exec_us", "segment.per_shard"} {
		if m[name].Value != -1 {
			t.Errorf("%s = %v, want -1", name, m[name].Value)
		}
	}
	if m["engine.plan_cache.hit_ratio"].Value < 0 {
		t.Errorf("an exported series was reported missing")
	}
}

// TestQuerySyntax: the benchmark's renderer and parser agree with each
// other and with workload.QueryStream's output.
func TestQuerySyntax(t *testing.T) {
	r := workload.NewReal(tinyScale().corpus)
	for _, s := range r.QueryStream(500, workload.StreamConfig{OrFrac: 0.3, NotFrac: 0.3, Seed: 3}) {
		q, err := parseQuery(s, len(r.Postings))
		if err != nil {
			t.Fatal(err)
		}
		if got := q.render(); got != s {
			t.Fatalf("render(parse(%q)) = %q", s, got)
		}
	}
	for _, bad := range []string{"t1 OR t2", "(t1 AND t2", "t1 AND NOT t2 AND NOT t3", "x1", "t99999"} {
		if _, err := parseQuery(bad, len(r.Postings)); err == nil {
			t.Errorf("parseQuery(%q) accepted", bad)
		}
	}
}
