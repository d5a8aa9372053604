// Command perfbench is the layered benchmark of the fastintersect query
// engine. It drives internal/engine in process — the API fsiserve and
// embedding applications call — with a fixed, seeded operation sequence
// replayed by two closed-loop clients, checks the answers, and prints one
// JSON line of metrics. See README.md beside this file.
//
//	perfbench --workload search-cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the sequence
// twice more (untraced, then with spans and per-layer replays) and reports
// the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fastintersect/internal/engine"
)

// Seeds: later changes tune against defaultSeed and show that a claimed
// gain also holds on heldOutSeed.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: search-cold, search-hot or churn")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (default seed %d, held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 10, "run length: the workload issues its nominal rate × seconds operations")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	spans := fs.String("spans", "", "file a traced run writes its spans to (default .bench_build/perfbench-spans-<workload>.tsv)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1, --seconds at least 1, and no positional arguments")
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "perfbench-spans-"+*wl+".tsv")
	}
	rep, err := runBench(options{
		workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spansOut: *spans, scale: fullScale(), log: stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or answered wrongly\n", rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

func runBench(o options) (*report, error) {
	spec, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	in, err := generate(spec, o)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	genS := since(&t)
	fmt.Fprintf(o.log, "perfbench: %s seed=%d ops=%d distinct_queries=%d host.gen_s=%.3f\n",
		spec.name, o.seed, len(in.ops), len(in.queries), genS)
	if o.trace {
		return tracedRun(in, genS, o)
	}
	return plainRun(in, o)
}

// endToEnd is the outcome of one untraced replay of the workload, with
// what Engine.Metrics() and runtime.MemStats saw during its timed phase.
type endToEnd struct {
	ph                 *phase
	qps                float64 // queries per second, see phase.stats
	queryP50, queryP99 float64 // ns, see phase.stats
	mutP50, mutP99     float64 // ns
	queries, muts      int
	queryMean          float64 // ns, over the whole phase
	tally              tally
	stealPct           float64
	postAdded          int // postings the phase added

	before, after map[string]float64 // Engine.Metrics() around the timed phase
	ms0, ms1      runtime.MemStats
	segMean       float64
	segOK         bool
}

// replayChecked runs the workload's sequence on e without spans and checks
// the answers. Churn's mutation latencies come from the sequence itself.
func replayChecked(e *engine.Engine, in *inputs, o options) (*endToEnd, error) {
	r := &endToEnd{}
	var err error
	if r.before, err = scrape(e.Metrics()); err != nil {
		return nil, err
	}
	runtime.GC() // every phase starts with set-up's garbage collected
	segs := sampleSegments(e, 50*time.Millisecond)
	st := startSteal()
	runtime.ReadMemStats(&r.ms0)
	r.ph = runPhase(e, in, in.ops, clients, nil, nil)
	runtime.ReadMemStats(&r.ms1)
	r.stealPct = st.pct()
	r.segMean, r.segOK = segs.stop()
	if r.after, err = scrape(e.Metrics()); err != nil {
		return nil, err
	}
	r.qps, r.queryP50, r.queryP99, r.queries = r.ph.stats(in.ops, false)
	r.ph.logSlices(o.log, in.ops)
	r.queryMean = mean(r.ph.latencies(in.ops, 0, len(in.ops), false))
	_, r.mutP50, r.mutP99, r.muts = r.ph.stats(in.ops, true)
	for _, op := range in.ops {
		r.postAdded += len(op.terms)
	}
	r.tally.add(len(in.ops), r.ph.errs+r.ph.wrong)
	r.tally.add(verify(e, in, r.ph, o))
	return r, nil
}

// verify checks a finished phase. Read workloads compare the recorded
// answers, which the phase already counted as attempted; churn runs its
// probe queries once the engine has quiesced.
func verify(e *engine.Engine, in *inputs, ph *phase, o options) (attempted, failed int) {
	if in.model == nil {
		checked, wrong := checkReads(in, in.ops, ph, o.scale.checkEvery)
		fmt.Fprintf(o.log, "perfbench: checked %d query answers against internal/sets, %d wrong\n", checked, wrong)
		return 0, wrong
	}
	quiesce(e)
	attempted, failed = checkProbes(e, in, o.scale, o.seed)
	fmt.Fprintf(o.log, "perfbench: checked %d probe and stream queries against the reference model, %d wrong\n", attempted, failed)
	return attempted, failed
}

// probe is one write-probe round's mutation latency percentiles in ns.
type probe struct {
	p50, p99 float64
	n        int
}

// probeRounds times rounds write-probe rounds on a freshly set-up engine
// of a read workload, from one client: with two, the probe's adds contend
// for shard locks and the median flips between a contended and an
// uncontended mode from round to round. After each round it deletes the
// probe documents still live, untimed, so every round — and the read phase
// that follows — sees the corpus as it was set up. Every set-up of a run
// gets its rounds, so they lie seconds apart and the quartile over them
// rides out a burst of host contention that would swamp a single round.
func probeRounds(e *engine.Engine, in *inputs, o options, t *tally, rounds int) []probe {
	ops := writeProbe(in.real.Config.NumDocs, len(in.real.Postings), o.scale.writeProbe, o.seed)
	live := map[uint32]bool{}
	for _, op := range ops {
		live[op.doc] = op.kind == opAdd
	}
	runtime.GC() // a collection left running by set-up would slow the rounds by an amount that varies
	out := make([]probe, rounds)
	p50s, p99s := make([]string, rounds), make([]string, rounds)
	for r := range out {
		ph := runPhase(e, in, ops, 1, nil, nil)
		t.add(len(ops), ph.errs+ph.wrong)
		lat := ph.latencies(ops, 0, len(ops), true)
		out[r] = probe{quantile(lat, 0.50), quantile(lat, 0.99), len(lat)}
		for _, op := range ops {
			if op.kind == opAdd && live[op.doc] {
				t.attempted++
				if found, err := e.DeleteDocument(op.doc); err != nil || !found {
					t.failed++
				}
			}
		}
		p50s[r] = strconv.FormatFloat(out[r].p50/1e3, 'f', 3, 64)
		p99s[r] = strconv.FormatFloat(out[r].p99/1e3, 'f', 2, 64)
	}
	fmt.Fprintf(o.log, "perfbench: write probe rounds p50_us=[%s] p99_us=[%s]\n", strings.Join(p50s, " "), strings.Join(p99s, " "))
	return out
}

// probeRoundsPerSetup is how many write-probe rounds follow each set-up.
const probeRoundsPerSetup = 12

// probeStats returns the upper quartile over rounds of the rounds' 50th and
// 99th latency percentiles, and the number of mutations timed. A lone
// client sometimes runs at about twice its usual speed for a stretch of
// rounds (0.5 µs against 1.0 µs), and that mode takes anywhere from none to
// half of a run's rounds, so the median over all rounds jumps between the
// two modes from run to run. The upper quartile is the slower side: it stays
// in the usual mode, the fast mode never lowers it, and a change that slows
// the engine's mutations slows every round and so moves it.
func probeStats(ps []probe) (p50, p99 float64, n int) {
	var p50s, p99s []float64
	for _, p := range ps {
		p50s, p99s, n = append(p50s, p.p50), append(p99s, p.p99), n+p.n
	}
	return fquantile(p50s, 0.75), fquantile(p99s, 0.75), n
}

func plainRun(in *inputs, o options) (*report, error) {
	base := liveHeap()
	var (
		e      *engine.Engine
		heap   float64
		t      tally
		probes []probe
	)
	totals := make([]float64, o.scale.setupReps)
	for i := range totals {
		e = nil // the previous engine is garbage before the next set-up
		runtime.GC()
		var st setupTimes
		var err error
		if e, st, err = setup(in, nil); err != nil {
			return nil, err
		}
		totals[i] = st.total()
		if i == len(totals)-1 {
			heap = float64(liveHeap()-base) / 1e6
		}
		if in.model == nil {
			probes = append(probes, probeRounds(e, in, o, &t, probeRoundsPerSetup)...)
		}
	}
	r, err := replayChecked(e, in, o)
	if err != nil {
		return nil, err
	}
	runtime.KeepAlive(e)
	t.add(r.tally.attempted, r.tally.failed)
	if len(probes) > 0 {
		r.mutP50, r.mutP99, r.muts = probeStats(probes)
	}
	fmt.Fprintf(o.log, "perfbench: setups_s=%.3f samples: query=%d mutation=%d host.steal_pct=%.2f\n",
		totals, r.queries, r.muts, r.stealPct)
	m := metricSet{
		"qps":             {r.qps, "req/s"},
		"query_p50_us":    {r.queryP50 / 1e3, "us"},
		"mutation_p50_us": {r.mutP50 / 1e3, "us"},
		"setup_s":         {median(totals), "s"},
		"heap_mb":         {heap, "MB"},
	}
	return newReport(t, m), nil
}

func newReport(t tally, m metricSet) *report {
	return &report{result: result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}}
}

// tracedRun measures the per-layer metrics. Phase A replays the sequence
// untraced on a fresh engine — the same run the end-to-end metrics come
// from — observed from outside through Engine.Metrics() and
// runtime.MemStats. Phase B replays it again on another fresh engine with
// spans around every engine call and layer replays for sampled queries.
func tracedRun(in *inputs, genS float64, o options) (*report, error) {
	tr := newTracer()
	setupBuf := tr.buffer(8)
	var t tally
	e, st, err := setup(in, setupBuf)
	if err != nil {
		return nil, err
	}
	var probes []probe
	if in.model == nil {
		probes = probeRounds(e, in, o, &t, probeRoundsPerSetup)
	}
	a, err := replayChecked(e, in, o)
	if err != nil {
		return nil, err
	}
	t.add(a.tally.attempted, a.tally.failed)
	if in.model == nil {
		_, a.mutP99, a.muts = probeStats(probes)
	}
	e = nil
	runtime.GC()

	rp, err := newReplayer(in, in.ops, o.scale.replays, o.log)
	if err != nil {
		return nil, fmt.Errorf("prepare replays: %w", err)
	}
	if e, _, err = setup(in, setupBuf); err != nil {
		return nil, err
	}
	if in.model == nil {
		probeRounds(e, in, o, &t, probeRoundsPerSetup)
	}
	phB := runPhase(e, in, in.ops, clients, tr, rp)
	t.add(len(in.ops), phB.errs+phB.wrong)
	t.add(verify(e, in, phB, o))
	runtime.KeepAlive(e)
	if err := tr.checkNesting(); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	if err := writeSpans(tr, o.spansOut); err != nil {
		return nil, err
	}
	stats := tr.summarize()
	logSpans(o.log, stats)

	m := metricSet{}
	put := m.put
	ops := float64(len(in.ops))
	acc := rp.acc
	perElem := func(ns int64) float64 { return float64(ns) / float64(max(1, acc.elems)) }
	for i, k := range kernelAlgos {
		put("kernels."+k.name+".ns_per_elem", "ns/elem", perElem(acc.kernelNs[i]), true)
	}
	put("kernels.oracle.ns_per_elem", "ns/elem", perElem(acc.oracleNs), true)
	put("kernels.result_ratio", "ratio", acc.resultRatioSum/float64(max(1, acc.n)), true)
	put("compress.intersect.ns_per_elem", "ns/elem", perElem(acc.compressNs), true)
	put("compress.bytes_per_posting", "B/posting", float64(rp.storedBytes)/float64(max(1, rp.postings)), true)
	put("plan.parse.ns", "ns", float64(acc.parseNs)/float64(max(1, acc.parses)), true)
	missing := seriesMetrics(m, a)
	put("engine.allocs_per_op", "allocs/op", float64(a.ms1.Mallocs-a.ms0.Mallocs)/ops, true)
	put("engine.bytes_per_op", "B/op", float64(a.ms1.TotalAlloc-a.ms0.TotalAlloc)/ops, true)
	put("setup.new_s", "s", st.newS, true)
	put("setup.load_s", "s", st.loadS, true)
	put("setup.install_s", "s", st.installS, true)
	put("runtime.gc_cycles", "count", float64(a.ms1.NumGC-a.ms0.NumGC), true)
	put("runtime.gc_pause_ms", "ms", float64(a.ms1.PauseTotalNs-a.ms0.PauseTotalNs)/1e6, true)
	put("trace.overhead_pct", "%", 100*(stats[spEngineQuery].meanNs()/a.queryMean-1), a.queryMean > 0)
	put("host.steal_pct", "%", a.stealPct, a.stealPct >= 0)
	put("host.gen_s", "s", genS, true)
	put("samples.query", "count", float64(a.queries), true)
	put("samples.mutation", "count", float64(a.muts), true)
	put("query_p99_us", "us", a.queryP99/1e3, true)
	put("mutation_p99_us", "us", a.mutP99/1e3, true)
	put("error_rate", "fraction", float64(t.failed)/float64(max(1, t.attempted)), true)
	put("obs.missing_series", "count", float64(len(missing)), true)
	if len(missing) > 0 {
		fmt.Fprintf(o.log, "perfbench: series missing from Engine.Metrics(), reported as -1: %s\n", strings.Join(missing, ", "))
	}
	rep := newReport(t, m)
	rep.tracer, rep.missing = tr, missing
	return rep, nil
}

// metricSet maps metric names to values; a value whose source series is
// missing reads -1, which no metric can take otherwise.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64, ok bool) {
	if !ok {
		v = -1
	}
	m[name] = metric{v, unit}
}

// seriesMetrics derives the per-layer metrics that Engine.Metrics() supplies
// for phase a, and returns the series it asked for that the engine does
// not export.
func seriesMetrics(m metricSet, a *endToEnd) []string {
	d := newSeriesDelta(a.before, a.after)
	kernels := []string{"Merge", "Gallop", "HashBin", "GroupScan", "BitsegAnd"}
	execs := make([]float64, len(kernels))
	execsOK, total := true, 0.0
	for i, k := range kernels {
		v, ok := d.delta(`fsi_kernel_executions_total{kernel="` + k + `"}`)
		execs[i], execsOK, total = v, execsOK && ok, total+v
	}
	for i, k := range kernels {
		m.put("plan.kernel_share."+k, "fraction", execs[i]/max(1, total), execsOK)
	}
	for _, s := range []string{"parse", "normalize", "plan", "cache", "exec", "merge"} {
		v, ok := d.histMean("fsi_query_stage_seconds", `{stage="`+s+`"}`)
		m.put("engine.stage."+s+"_us", "us", v*1e6, ok)
	}
	v, ok := d.ratio("fsi_cache_hits_total", "fsi_cache_misses_total")
	m.put("engine.cache.hit_ratio", "fraction", v, ok)
	v, ok = d.delta("fsi_cache_stale_total")
	m.put("engine.cache.stale", "count", v, ok)
	v, ok = d.ratio("fsi_plan_cache_hits_total", "fsi_plan_cache_misses_total")
	m.put("engine.plan_cache.hit_ratio", "fraction", v, ok)
	v, ok = d.delta("fsi_segment_freezes_total")
	m.put("segment.freezes", "count", v, ok)
	v, ok = d.delta("fsi_segment_merges_total")
	m.put("segment.merges", "count", v, ok)
	v, ok = d.delta("fsi_compaction_bytes_total")
	m.put("segment.write_amp", "ratio", v/float64(max(1, 4*a.postAdded)), ok)
	if !a.segOK {
		d.missing[`fsi_segments{shard="*"}`] = true
	}
	m.put("segment.per_shard", "segments", a.segMean, a.segOK)
	return d.missingNames()
}

// segSampler averages the fsi_segments gauges over a run.
type segSampler struct {
	stopc chan struct{}
	done  chan struct{}
	sum   float64
	n     int
	ok    bool
}

// sampleSegments reads the per-shard segment gauges every interval until
// stop, which returns their mean over shards and samples; ok is false when
// the engine exports no fsi_segments series.
func sampleSegments(e *engine.Engine, every time.Duration) *segSampler {
	s := &segSampler{stopc: make(chan struct{}), done: make(chan struct{}), ok: true}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			m, err := scrape(e.Metrics())
			if err != nil {
				s.ok = false
				return
			}
			n := s.n
			for name, v := range m {
				if strings.HasPrefix(name, "fsi_segments{") {
					s.sum += v
					s.n++
				}
			}
			if s.n == n {
				s.ok = false
				return
			}
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *segSampler) stop() (float64, bool) {
	close(s.stopc)
	<-s.done
	if !s.ok || s.n == 0 {
		return 0, false
	}
	return s.sum / float64(s.n), true
}

func writeSpans(tr *tracer, path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// logSpans prints each span name's count, mean and mean self time.
func logSpans(w io.Writer, stats [numSpanNames]spanStat) {
	for i, s := range stats {
		if s.count == 0 {
			continue
		}
		fmt.Fprintf(w, "perfbench: span %-22s n=%-8d mean_us=%-10.3f self_mean_us=%.3f\n",
			spanNames[i], s.count, s.meanNs()/1e3, float64(s.selfNs)/float64(s.count)/1e3)
	}
}
