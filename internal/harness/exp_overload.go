package harness

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"fastintersect/internal/admission"
	"fastintersect/internal/engine"
	"fastintersect/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "overload",
		Title: "Saturation sweep: offered QPS vs accepted-latency percentiles and goodput, with and without shedding",
		Paper: "serving tier (no paper artifact); the paper's strict-latency-budget setting under overload",
		Run:   runOverloadBench,
	})
}

// Overload experiment: drive an engine whose per-shard service time is
// pinned by fault injection with an open-loop Poisson arrival stream at
// multiples of its measured capacity, once through a tight admission gate
// (shedding) and once through an effectively unbounded queue with no
// deadlines (the naive baseline). The claim under test is the classic
// load-shedding tradeoff: past saturation the gate keeps accepted-query
// latency flat and goodput at capacity by turning excess work into cheap
// rejections, while the unbounded queue accepts everything and finishes
// almost nothing inside its latency budget.

// overloadDeadline is each request's end-to-end budget in the shedding
// configuration (and the goodput cutoff in both).
const overloadDeadline = 50 * time.Millisecond

// overloadDelay is the injected per-shard service time: large enough to
// dwarf real evaluation cost, so measured capacity is deterministic.
const overloadDelay = 5 * time.Millisecond

// overloadInflight is the shedding gate's concurrency; the engine worker
// pool is sized above it so admission, not the engine, is the bottleneck.
const overloadInflight = 4

// OverloadPoint is one (mode, offered-rate) cell of the sweep.
type OverloadPoint struct {
	Mode       string  `json:"mode"`     // "shed" or "noshed"
	Multiple   float64 `json:"multiple"` // offered rate as a multiple of capacity
	OfferedQPS float64 `json:"offered_qps"`

	Offered  int `json:"offered"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`  // admission: quota/deadline-infeasible
	Shed     int `json:"shed"`      // admission: queue full/timeout/draining
	TimedOut int `json:"timed_out"` // admitted but failed with a context error
	Complete int `json:"complete"`  // admitted and finished successfully

	AcceptedP50US float64 `json:"accepted_p50_us"` // arrival→completion, completed requests
	AcceptedP99US float64 `json:"accepted_p99_us"`
	GoodputQPS    float64 `json:"goodput_qps"` // completions within the deadline / wall
}

// OverloadReport is the BENCH_overload.json artifact emitted by
// fsibench -overload-json.
type OverloadReport struct {
	Schema           string          `json:"schema"`
	Scale            string          `json:"scale"`
	Seed             uint64          `json:"seed"`
	CapacityQPS      float64         `json:"capacity_qps"`
	DeadlineMS       int64           `json:"deadline_ms"`
	ServiceDelayMS   int64           `json:"service_delay_ms"`
	MaxInflight      int             `json:"max_inflight"`
	UncontendedP99US float64         `json:"uncontended_p99_us"`
	Points           []OverloadPoint `json:"points"`
}

// OverloadBench measures capacity closed-loop, then sweeps offered load at
// {0.5, 1, 2, 3}× capacity in both admission modes. The uncontended p99 the
// acceptance bound references is the 0.5× shed point's accepted p99.
func OverloadBench(cfg Config) *OverloadReport {
	// The corpus is deliberately tiny: the injected delay must dwarf real
	// evaluation cost even on a single-core runner, or CPU contention at 3×
	// offered load pollutes the accepted-latency tail with scheduler noise
	// that has nothing to do with admission policy.
	rc := workload.SmallRealConfig()
	rc.NumDocs, rc.NumTerms, rc.NumQueries = 10_000, 1_000, 128
	window := 500 * time.Millisecond
	if cfg.Full() {
		rc.NumDocs, rc.NumTerms, rc.NumQueries = 50_000, 2_000, 512
		window = 3 * time.Second
	}
	rc.Seed = cfg.Seed
	real := workload.NewReal(rc)
	sc := workload.DefaultStreamConfig()
	sc.Seed = cfg.Seed + 1

	e := engine.New(engine.Config{
		Shards:    1,
		Workers:   2 * overloadInflight, // engine never the bottleneck
		CacheSize: 0,                    // every query pays the injected service time
		Faults:    &engine.FaultPlan{Shard: -1, Delay: overloadDelay},
	})
	b := e.NewBuilder()
	for t, docs := range real.Postings {
		if err := b.AddPosting(workload.TermName(t), docs); err != nil {
			panic(fmt.Sprintf("harness: overload build: %v", err))
		}
	}
	if err := e.Install(b); err != nil {
		panic(fmt.Sprintf("harness: overload install: %v", err))
	}

	// Closed-loop capacity: overloadInflight workers querying back to back.
	// With the injected delay dominating, this lands near
	// overloadInflight/overloadDelay regardless of hardware.
	capQPS := measureCapacity(e, real.QueryStream(4096, sc))

	rep := &OverloadReport{
		Schema:         "fsibench/overload/v1",
		Scale:          cfg.Scale,
		Seed:           cfg.Seed,
		CapacityQPS:    capQPS,
		DeadlineMS:     overloadDeadline.Milliseconds(),
		ServiceDelayMS: overloadDelay.Milliseconds(),
		MaxInflight:    overloadInflight,
	}
	for _, mult := range []float64{0.5, 1, 2, 3} {
		for _, mode := range []string{"shed", "noshed"} {
			pt := runOverloadPoint(e, real, sc, mode, mult, capQPS, window, cfg.Seed)
			if mode == "shed" && mult == 0.5 {
				rep.UncontendedP99US = pt.AcceptedP99US
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep
}

// measureCapacity runs a short closed loop at the shedding concurrency and
// returns queries per second.
func measureCapacity(e *engine.Engine, stream []string) float64 {
	const dur = 300 * time.Millisecond
	var wg sync.WaitGroup
	var done [overloadInflight]int
	start := time.Now()
	for w := 0; w < overloadInflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Since(start) < dur; i += overloadInflight {
				if _, err := e.Query(stream[i%len(stream)]); err != nil {
					panic(fmt.Sprintf("harness: overload capacity query: %v", err))
				}
				done[w]++
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	n := 0
	for _, d := range done {
		n += d
	}
	return float64(n) / wall.Seconds()
}

// Per-request outcome codes written by the load goroutines (one slot per
// request, no shared mutable state).
const (
	ocComplete = iota
	ocRejected
	ocShed
	ocTimedOut
)

// runOverloadPoint offers one open-loop arrival schedule to a fresh gate in
// the given mode and accounts every request.
func runOverloadPoint(e *engine.Engine, real *workload.Real, sc workload.StreamConfig, mode string, mult, capQPS float64, window time.Duration, seed uint64) OverloadPoint {
	qps := mult * capQPS
	n := int(qps * window.Seconds())
	if n < 1 {
		n = 1
	}
	arrivals := workload.Arrivals(n, qps, seed+uint64(mult*1000))
	queries := real.QueryStream(n, sc)

	gcfg := admission.Config{MaxInflight: overloadInflight, QueueDepth: overloadInflight}
	useDeadline := true
	if mode == "noshed" {
		// The naive baseline: a queue deep enough to never shed, and no
		// deadlines anywhere — every request waits as long as it takes.
		gcfg.QueueDepth = 1 << 20
		useDeadline = false
	}
	gate := admission.NewGate(gcfg, nil)

	outcomes := make([]uint8, n)
	latencies := make([]time.Duration, n) // arrival→completion, valid when ocComplete
	done := make([]time.Duration, n)      // completion offset from start
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(arrivals[i])))
			arrived := time.Now()
			ctx := context.Background()
			if useDeadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, overloadDeadline)
				defer cancel()
			}
			tk, err := gate.Acquire(ctx, "")
			if err != nil {
				switch err {
				case admission.ErrQuotaExceeded, admission.ErrDeadlineInfeasible:
					outcomes[i] = ocRejected
				default:
					outcomes[i] = ocShed
				}
				done[i] = time.Since(start)
				return
			}
			_, qerr := e.QueryContext(ctx, queries[i])
			gate.Release(tk)
			if qerr != nil {
				outcomes[i] = ocTimedOut
			} else {
				outcomes[i] = ocComplete
				latencies[i] = time.Since(arrived)
			}
			done[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	wall := slices.Max(done)

	pt := OverloadPoint{Mode: mode, Multiple: mult, OfferedQPS: qps, Offered: n}
	var acc []time.Duration
	good := 0
	for i, oc := range outcomes {
		switch oc {
		case ocComplete:
			pt.Complete++
			pt.Accepted++
			acc = append(acc, latencies[i])
			if latencies[i] <= overloadDeadline {
				good++
			}
		case ocTimedOut:
			pt.TimedOut++
			pt.Accepted++
		case ocRejected:
			pt.Rejected++
		case ocShed:
			pt.Shed++
		}
	}
	// Cross-check our per-request accounting against the gate's counters —
	// the accepted+rejected+shed=offered invariant the CI smoke asserts.
	st := gate.Stats()
	if got := st.Accepted + st.Rejected + st.Shed; got != uint64(n) {
		panic(fmt.Sprintf("harness: overload gate accounting: accepted(%d)+rejected(%d)+shed(%d)=%d, offered %d",
			st.Accepted, st.Rejected, st.Shed, got, n))
	}
	slices.Sort(acc)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	pt.AcceptedP50US = us(nearestRank(acc, 50))
	pt.AcceptedP99US = us(nearestRank(acc, 99))
	pt.GoodputQPS = float64(good) / wall.Seconds()
	return pt
}

// nearestRank returns the p-th percentile (nearest rank) of sorted
// latencies.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func runOverloadBench(cfg Config) []*Table {
	rep := OverloadBench(cfg)
	t := &Table{
		ID:    "overload",
		Title: "Offered load vs accepted latency and goodput, shedding vs unbounded queue",
		Columns: []string{"mode", "x capacity", "offered", "accepted", "rejected", "shed", "timed out",
			"p50 µs", "p99 µs", "goodput qps"},
		Notes: []string{
			fmt.Sprintf("capacity %.0f qps (closed loop at %d inflight, %v injected service time); deadline %v",
				rep.CapacityQPS, rep.MaxInflight, overloadDelay, overloadDeadline),
			"goodput counts completions whose arrival→completion latency met the deadline, in both modes",
		},
	}
	for _, p := range rep.Points {
		t.AddRow(p.Mode, fmt.Sprintf("%.1f", p.Multiple),
			fmt.Sprintf("%d", p.Offered), fmt.Sprintf("%d", p.Accepted),
			fmt.Sprintf("%d", p.Rejected), fmt.Sprintf("%d", p.Shed), fmt.Sprintf("%d", p.TimedOut),
			fmt.Sprintf("%.0f", p.AcceptedP50US), fmt.Sprintf("%.0f", p.AcceptedP99US),
			fmt.Sprintf("%.0f", p.GoodputQPS))
	}
	return []*Table{t}
}
