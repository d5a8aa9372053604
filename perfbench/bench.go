package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fastintersect/internal/engine"
	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
)

// workloadSpec is one workload. A run issues rate × seconds operations: the
// count is fixed by the flags, never by how fast the run goes, so every run
// of a seed does the same work. rate is the operation rate the workload
// reaches on a 2-vCPU x86-64 host, so a run lasts about --seconds there.
// Why each workload exists is in README.md and BENCHMARK.json.
type workloadSpec struct {
	name string
	rate float64
}

var workloads = []workloadSpec{
	{"search-cold", 8_500},
	{"search-hot", 31_000},
	{"churn", 7_000},
}

func findWorkload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// scale sizes a run: fullScale is the benchmark, the self-test shrinks it.
type scale struct {
	corpus     workload.RealConfig // Seed is replaced by the run seed
	opsFactor  float64             // multiplies every workload's operation count
	setupReps  int                 // set-ups per run; setup_s is their median
	replays    int                 // conjunctions replayed per traced run
	writeProbe int                 // documents a write-probe round adds
	probes     int                 // churn probe queries
	rechecks   int                 // churn stream queries checked after quiesce
	checkEvery int                 // read workloads check pool entries i < 32 or i%checkEvery == 0
}

func fullScale() scale {
	c := workload.SmallRealConfig()
	c.NumQueries = 60_000 // ~40k distinct canonical forms, ten times the result cache
	return scale{corpus: c, opsFactor: 1, setupReps: 3, replays: 256, writeProbe: 4096, probes: 64, rechecks: 512, checkEvery: 64}
}

// Engine deployment settings, as fsiserve runs it by default.
const (
	shards        = 4
	cacheEntries  = 4096
	compactAt     = 50_000 // fsiserve -compact default
	clients       = 2
	churnFreezes  = 12 // freezes each shard should complete in a churn run
	popularChecks = 32 // most popular pool entries always checked
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spansOut string // where a traced run writes its spans ("" = nowhere)
	scale    scale
	log      io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// report is a run's result plus what the self-test inspects.
type report struct {
	result
	tracer  *tracer
	missing []string
}

// tally counts engine operations and the ones that failed or answered
// wrongly.
type tally struct{ attempted, failed int }

func (t *tally) add(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

func generate(spec workloadSpec, o options) (*inputs, error) {
	cfg := o.scale.corpus
	cfg.Seed = o.seed
	in := &inputs{real: workload.NewReal(cfg)}
	n := int(math.Round(spec.rate * float64(o.seconds) * o.scale.opsFactor))
	if n < 1 {
		n = 1
	}
	var err error
	switch spec.name {
	case "search-cold", "search-hot":
		if in.queries, err = queryPool(in.real, o.seed); err != nil {
			return nil, err
		}
		if spec.name == "search-cold" {
			in.ops = coldOps(in.queries, n)
		} else {
			in.ops = hotOps(in.queries, n, o.seed)
		}
	case "churn":
		if in.ops, in.queries, err = churnOps(in.real, n, o.seed); err != nil {
			return nil, err
		}
		added := 0
		for _, op := range in.ops {
			added += len(op.terms)
		}
		in.compactAt = max(16, added/shards/churnFreezes)
		in.model = newDocModel(in.real.Postings, in.ops)
	}
	return in, nil
}

func engineConfig(in *inputs) engine.Config {
	c := engine.Config{Shards: shards, CacheSize: cacheEntries, CompactThreshold: compactAt}
	if in.compactAt > 0 {
		c.CompactThreshold = in.compactAt
	}
	return c
}

type setupTimes struct{ newS, loadS, installS float64 }

func (s setupTimes) total() float64 { return s.newS + s.loadS + s.installS }

// setup is the timed set-up path: engine.New, every posting through
// Builder.AddPosting, Install. sb may be nil.
func setup(in *inputs, sb *spanBuf) (*engine.Engine, setupTimes, error) {
	var st setupTimes
	t := time.Now()
	h := sb.begin(spSetupNew, 0, 0)
	e := engine.New(engineConfig(in))
	sb.end(h)
	st.newS = since(&t)
	h = sb.begin(spSetupLoad, 0, 0)
	b := e.NewBuilder()
	for term, p := range in.real.Postings {
		if err := b.AddPosting(workload.TermName(term), p); err != nil {
			return nil, st, fmt.Errorf("load postings: %w", err)
		}
	}
	sb.end(h)
	st.loadS = since(&t)
	h = sb.begin(spSetupInstall, 0, 0)
	err := e.Install(b)
	sb.end(h)
	st.installS = since(&t)
	if err != nil {
		return nil, st, fmt.Errorf("install: %w", err)
	}
	return e, st, nil
}

// since returns the seconds since *t and advances *t to now.
func since(t *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*t).Seconds()
	*t = now
	return d
}

// liveHeap returns the live heap in bytes after forced collections (two,
// so sync.Pool victims are dropped too).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// phaseSlices is how many consecutive parts a phase's sequence is cut into.
// The clients finish a part before either starts the next. The metrics are
// taken over the whole sequence; the parts only feed the per-slice rates,
// latencies and CPU steal printed on standard error, which show whether a
// slow run was slow throughout or in a burst of host contention.
const phaseSlices = 20

// phase is one closed-loop replay of an operation sequence.
type phase struct {
	ns      []int64 // per operation, engine call only
	counts  []int32 // query result counts; -1 for failed calls and mutations
	bounds  []int   // slice c is ops[bounds[c]:bounds[c+1]]
	elapsed []time.Duration
	steal   []float64 // per slice: % of CPU ticks stolen, -1 if unknown
	wrong   int       // deletes that missed, kernel disagreements
	errs    int
}

// assign splits ops[lo:hi] over the clients: queries alternate, and every
// operation on one document goes to the same client, so each document's
// adds and deletes apply in stream order whatever the interleaving.
func assign(ops []op, lo, hi, clients int) [][]int32 {
	out := make([][]int32, clients)
	q := 0
	for i := lo; i < hi; i++ {
		c := q % clients
		if ops[i].kind == opQuery {
			q++
		} else {
			c = int(ops[i].doc % uint32(clients))
		}
		out[c] = append(out[c], int32(i))
	}
	return out
}

// client is one closed-loop client's state across a phase.
type client struct {
	sb          *spanBuf      // nil when untraced
	rc          *replayClient // nil without replays
	wrong, errs int
}

// runPhase replays ops with one goroutine per client, each sending its next
// operation when the previous one returns. With tr set, every operation is
// a root span holding the engine call; rp, when set, replays the layers for
// the sampled queries inside the same root span.
func runPhase(e *engine.Engine, in *inputs, ops []op, clients int, tr *tracer, rp *replayer) *phase {
	ph := &phase{ns: make([]int64, len(ops)), counts: make([]int32, len(ops)), bounds: []int{0}}
	cls := make([]*client, clients)
	for c := range cls {
		cls[c] = &client{rc: rp.client()}
		if tr != nil {
			n := len(ops)/clients + 1
			cls[c].sb = tr.buffer(2*n + 8*rp.expected(n))
		}
	}
	for k := 0; k < phaseSlices; k++ {
		lo, hi := len(ops)*k/phaseSlices, len(ops)*(k+1)/phaseSlices
		var wg sync.WaitGroup
		sm := startSteal()
		start := time.Now()
		for c, mine := range assign(ops, lo, hi, clients) {
			wg.Add(1)
			go func(cl *client, mine []int32) {
				defer wg.Done()
				for _, i := range mine {
					ph.do(e, in, ops, i, cl)
				}
			}(cls[c], mine)
		}
		wg.Wait()
		ph.elapsed = append(ph.elapsed, time.Since(start))
		ph.steal = append(ph.steal, sm.pct())
		ph.bounds = append(ph.bounds, hi)
	}
	for _, cl := range cls {
		cl.rc.release()
		ph.wrong += cl.wrong
		ph.errs += cl.errs
	}
	return ph
}

// do runs operation i on behalf of cl.
func (ph *phase) do(e *engine.Engine, in *inputs, ops []op, i int32, cl *client) {
	o := &ops[i]
	req := i + 1
	root := cl.sb.begin(spOpQuery+spanName(o.kind), 0, req)
	h := cl.sb.begin(spEngineQuery+spanName(o.kind), root, req)
	t := time.Now()
	var err error
	count := int32(-1)
	switch o.kind {
	case opQuery:
		var res *engine.Result
		if res, err = e.Query(in.queries[o.q].text); err == nil {
			count = int32(res.Count)
		}
	case opAdd:
		err = e.AddDocument(o.doc, o.terms)
	case opDelete:
		var found bool
		found, err = e.DeleteDocument(o.doc)
		// Only the write probe knows every delete's target is live.
		if err == nil && !found && in.model == nil {
			cl.wrong++
		}
	}
	ph.ns[i] = time.Since(t).Nanoseconds()
	cl.sb.end(h)
	ph.counts[i] = count
	if err != nil {
		cl.errs++
	}
	if o.kind == opQuery && cl.rc.sampled(int(i)) {
		if err := cl.rc.replay(cl.sb, root, req, &in.queries[o.q]); err != nil {
			fmt.Fprintf(cl.rc.rp.log, "perfbench: replay of %q: %v\n", in.queries[o.q].text, err)
			cl.wrong++
		}
	}
	cl.sb.end(root)
}

// latencies returns the latencies of one kind of operation among
// ops[lo:hi], sorted.
func (ph *phase) latencies(ops []op, lo, hi int, mutations bool) []int64 {
	var out []int64
	for i := lo; i < hi; i++ {
		if (ops[i].kind != opQuery) == mutations {
			out = append(out, ph.ns[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// logSlices prints each slice's query rate, latency percentiles and CPU
// steal, then the quartiles of the slices' query rates and medians.
func (ph *phase) logSlices(w io.Writer, ops []op) {
	var rates, p50s []float64
	for k := range ph.elapsed {
		lat := ph.latencies(ops, ph.bounds[k], ph.bounds[k+1], false)
		mut := ph.latencies(ops, ph.bounds[k], ph.bounds[k+1], true)
		rate := float64(len(lat)) / ph.elapsed[k].Seconds()
		rates, p50s = append(rates, rate), append(p50s, quantile(lat, 0.5))
		fmt.Fprintf(w, "perfbench: slice %d qps=%.1f p50_us=%.2f p99_us=%.1f mut_p50_us=%.3f mut_p99_us=%.1f mut_n=%d steal_pct=%.2f\n", k,
			rate, quantile(lat, 0.5)/1e3, quantile(lat, 0.99)/1e3,
			quantile(mut, 0.5)/1e3, quantile(mut, 0.99)/1e3, len(mut), ph.steal[k])
	}
	fmt.Fprintf(w, "perfbench: slice quartiles qps=[%.1f %.1f %.1f] p50_us=[%.2f %.2f %.2f]\n",
		fquantile(rates, 0.25), fquantile(rates, 0.5), fquantile(rates, 0.75),
		fquantile(p50s, 0.25)/1e3, fquantile(p50s, 0.5)/1e3, fquantile(p50s, 0.75)/1e3)
}

// stats returns, for one kind of operation over the whole phase, its rate
// (operations ÷ the phase's elapsed time), its 50th and 99th latency
// percentiles in ns, and the number of operations.
func (ph *phase) stats(ops []op, mutations bool) (rate, p50, p99 float64, n int) {
	lat := ph.latencies(ops, 0, len(ops), mutations)
	var elapsed time.Duration
	for _, d := range ph.elapsed {
		elapsed += d
	}
	if len(lat) == 0 || elapsed <= 0 {
		return 0, 0, 0, len(lat)
	}
	return float64(len(lat)) / elapsed.Seconds(), quantile(lat, 0.50), quantile(lat, 0.99), len(lat)
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(lo)
	return float64(sorted[lo])*(1-f) + float64(sorted[lo+1])*f
}

// fquantile is quantile over a sorted copy of xs.
func fquantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return fquantile(xs, 0.5) }

// checkReads compares every query on a checked pool entry with the count
// internal/sets computes from the generated postings. It returns how many
// operations it checked and how many were wrong.
func checkReads(in *inputs, ops []op, ph *phase, every int) (checked, wrong int) {
	refs := map[int32]int32{}
	post := func(t int) []uint32 { return in.real.Postings[t] }
	for i, o := range ops {
		if o.kind != opQuery || ph.counts[i] < 0 || (o.q >= popularChecks && int(o.q)%every != 0) {
			continue
		}
		ref, ok := refs[o.q]
		if !ok {
			ref = int32(len(in.queries[o.q].eval(post)))
			refs[o.q] = ref
		}
		checked++
		if ph.counts[i] != ref {
			wrong++
		}
	}
	return checked, wrong
}

// quiesce waits until background compactions stop moving the segment
// counters (100 ms without a change), or 30 s pass.
func quiesce(e *engine.Engine) {
	names := [...]string{"fsi_segment_freezes_total", "fsi_segment_merges_total", "fsi_compactions_total", "fsi_rebuilds_total"}
	var last [len(names)]float64
	stable := 0
	deadline := time.Now().Add(30 * time.Second)
	for stable < 5 && time.Now().Before(deadline) {
		m, err := scrape(e.Metrics())
		if err != nil {
			return
		}
		var cur [len(names)]float64
		for i, n := range names {
			cur[i] = m[n]
		}
		if cur == last {
			stable++
		} else {
			last, stable = cur, 0
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkProbes runs, against a quiesced engine, the churn probe queries —
// fixed queries the stream never issued — and a sample of the stream's own
// queries, and compares each answer, document by document, with the
// reference model.
func checkProbes(e *engine.Engine, in *inputs, sc scale, seed uint64) (attempted, failed int) {
	qs := append(probeQueries(len(in.real.Postings), sc.probes, seed), recheckQueries(in.queries, sc.rechecks, seed)...)
	for _, q := range qs {
		attempted++
		res, err := e.Query(q.text)
		if err != nil {
			failed++
			continue
		}
		if !sets.Equal(res.Docs, q.eval(in.model.posting)) {
			failed++
		}
	}
	return attempted, failed
}

// cpuTicks reads the host's steal and total CPU ticks from /proc/stat.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of CPU ticks stolen by the hypervisor over
// an interval; -1 when /proc/stat is unreadable.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

func (m stealMeter) pct() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return -1
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}
