package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "test")
	const workers, perWorker = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%3 == 0 {
					c.Add(2)
				} else {
					c.Inc()
				}
			}
		}()
	}
	wg.Wait()
	// per worker: ceil(10000/3)=3334 Adds of 2 plus 6666 Incs.
	want := uint64(workers * (3334*2 + 6666))
	if got := c.Value(); got != want {
		t.Fatalf("counter value = %d, want %d", got, want)
	}
}

func TestCounterIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("re-registering the same counter returned a different object")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.0)
	if v := g.Value(); v != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", v)
	}
	g.Set(-1)
	if v := g.Value(); v != -1 {
		t.Fatalf("gauge = %v, want -1", v)
	}
}

func TestHistogramMergeConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency")
	const workers, perWorker = 8, 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(1+(w*perWorker+i)%1000) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
	if s.SumNs == 0 {
		t.Fatal("histogram sum is zero after observations")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "q")
	// 1000 observations spread uniformly over (0, 1ms].
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.90, 900 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := s.Quantile(tc.q)
		// log2 buckets are exact only to a factor of two.
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("p%v = %v, want within 2x of %v", tc.q*100, got, tc.want)
		}
	}
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("m_seconds", "m")
	for _, d := range []time.Duration{0, time.Nanosecond, 10 * time.Microsecond, time.Millisecond, 50 * time.Millisecond} {
		for i := 0; i < 20; i++ {
			h.Observe(d)
		}
	}
	s := h.Snapshot()
	prev := time.Duration(-1)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999, 1.0} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%v gave %v after %v", q, v, prev)
		}
		prev = v
	}
}

func TestWritePrometheusShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_queries_total", "queries served").Add(7)
	r.Counter(`app_http_requests_total{path="/query"}`, "http requests").Add(3)
	r.Counter(`app_http_requests_total{path="/stats"}`, "http requests").Add(1)
	g := r.Gauge("app_temperature", "temp")
	g.Set(2.5)
	r.CounterFunc("app_cache_hits_total", "cache hits", func() uint64 { return 42 })
	r.GaugeFunc("app_generation", "index generation", func() float64 { return 9 })
	h := r.Histogram("app_latency_seconds", "latency")
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE app_queries_total counter",
		"app_queries_total 7",
		`app_http_requests_total{path="/query"} 3`,
		`app_http_requests_total{path="/stats"} 1`,
		"# TYPE app_temperature gauge",
		"app_temperature 2.5",
		"app_cache_hits_total 42",
		"app_generation 9",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="+Inf"} 3`,
		"app_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in output:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# TYPE app_http_requests_total counter"); n != 1 {
		t.Errorf("TYPE header for labeled family appears %d times, want 1", n)
	}

	// Histogram buckets must be cumulative and end at count.
	var lastCum uint64
	var les []float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "app_latency_seconds_bucket") {
			continue
		}
		var le string
		var cum uint64
		if _, err := parseBucketLine(line, &le, &cum); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if cum < lastCum {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		lastCum = cum
		if le != "+Inf" {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", le, err)
			}
			if len(les) > 0 && v <= les[len(les)-1] {
				t.Fatalf("le values not increasing at %q", line)
			}
			les = append(les, v)
		}
	}
	if lastCum != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", lastCum)
	}
	if len(les) == 0 {
		t.Fatal("no finite le buckets rendered")
	}
}

func parseBucketLine(line string, le *string, cum *uint64) (int, error) {
	i := strings.Index(line, `le="`)
	j := strings.Index(line[i+4:], `"`)
	*le = line[i+4 : i+4+j]
	var err error
	*cum, err = strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
	return 0, err
}

func TestSampler(t *testing.T) {
	s := NewSampler(4)
	var admitted int
	for i := 0; i < 400; i++ {
		if s.Sample() {
			admitted++
		}
	}
	if admitted != 100 {
		t.Fatalf("sampler(4) admitted %d of 400, want 100", admitted)
	}
	always := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !always.Sample() {
			t.Fatal("sampler(1) must admit everything")
		}
	}
	if NewSampler(0).every != 1 {
		t.Fatal("sampler(0) should clamp to 1")
	}
}

func TestTracePool(t *testing.T) {
	tr := GetTrace()
	tr.Stages[StageParse] = 123
	tr.Shards = append(tr.Shards, ShardSpan{Shard: 1, Rows: 10, Ns: 50})
	PutTrace(tr)
	tr2 := GetTrace()
	if tr2.Stages[StageParse] != 0 || len(tr2.Shards) != 0 {
		t.Fatal("pooled trace not reset")
	}
	PutTrace(tr2)
	PutTrace(nil) // must not panic
}

func TestStageString(t *testing.T) {
	want := []string{"parse", "normalize", "plan", "cache", "exec", "merge"}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if NumStages.String() != "unknown" {
		t.Fatal("out-of-range stage should stringify as unknown")
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(10*time.Millisecond, 3)
	l.Record(SlowEntry{Query: "fast", DurationUS: 500}) // under threshold, dropped
	for i := 1; i <= 5; i++ {
		l.Record(SlowEntry{Query: "q" + strconv.Itoa(i), DurationUS: int64(10_000 + i)})
	}
	if got := l.Total(); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	for i, want := range []string{"q5", "q4", "q3"} {
		if snap[i].Query != want {
			t.Fatalf("snapshot[%d] = %q, want %q (newest first)", i, snap[i].Query, want)
		}
	}
	if l.Threshold() != 10*time.Millisecond {
		t.Fatal("threshold accessor mismatch")
	}

	var nilLog *SlowLog
	nilLog.Record(SlowEntry{Query: "x", DurationUS: 1 << 30})
	if nilLog.Snapshot() != nil || nilLog.Total() != 0 || nilLog.Threshold() != 0 {
		t.Fatal("nil slowlog must be inert")
	}
}

func TestSlowLogPartial(t *testing.T) {
	l := NewSlowLog(time.Millisecond, 8)
	l.Record(SlowEntry{Query: "a", DurationUS: 2000})
	l.Record(SlowEntry{Query: "b", DurationUS: 2000})
	snap := l.Snapshot()
	if len(snap) != 2 || snap[0].Query != "b" || snap[1].Query != "a" {
		t.Fatalf("partial snapshot wrong: %+v", snap)
	}
}

// TestSlowLogReasonBypassesThreshold: shed/rejected/timed-out requests are
// recorded no matter how fast they failed — a request shed in microseconds
// is the overload diagnostic, not noise.
func TestSlowLogReasonBypassesThreshold(t *testing.T) {
	l := NewSlowLog(10*time.Millisecond, 4)
	l.Record(SlowEntry{Query: "fast-ok", DurationUS: 5}) // under threshold, no reason: dropped
	l.Record(SlowEntry{Query: "shed", DurationUS: 5, Reason: "shed_queue_full"})
	snap := l.Snapshot()
	if len(snap) != 1 || snap[0].Query != "shed" || snap[0].Reason != "shed_queue_full" {
		t.Fatalf("snapshot = %+v, want only the reasoned entry", snap)
	}
}
