// Package obs is the query-path observability layer: the measurement
// machinery every scaling decision in this repo leans on — estimated
// against actual rows and time per plan operator (explain=analyze), the
// per-kernel run counters that check the committed cost table's anchors,
// and the serving surfaces (latency percentiles, slow queries,
// per-endpoint request accounting).
//
// It provides four pieces, all free of external dependencies and all safe
// for concurrent use:
//
//   - Counter / Gauge: lock-free counters sharded across cache-line-padded
//     per-stripe slots, merged on read, so the hot path of a many-core
//     server never serializes on one cache line (see stripe).
//   - Histogram: log₂-bucketed latency histograms. Observe is one sharded
//     bucket increment plus a sum add — allocation-free — and Snapshot
//     merges the stripes for quantile estimation (p50/p90/p99/p999 within
//     a factor-of-two bucket resolution, linearly interpolated inside the
//     bucket).
//   - Registry: named metrics rendered in Prometheus text exposition
//     format (counters, gauges, callback metrics, histograms with
//     cumulative le buckets), served by fsiserve's GET /metrics.
//   - Trace / SlowLog / Sampler (trace.go): the pooled per-query stage
//     trace the engine carries through its execution contexts, the
//     slow-query ring buffer behind GET /debug/slowlog, and the 1-in-N
//     sampler that keeps steady-state tracing overhead negligible.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// ---------------------------------------------------------------------------
// Striping

// maxStripes bounds the per-metric memory: a counter is one padded word per
// stripe, a histogram one bucket array per stripe.
const maxStripes = 64

var (
	numStripes = computeStripes()
	stripeMask = uintptr(numStripes - 1)
)

// computeStripes rounds GOMAXPROCS up to a power of two (capped) so stripe
// selection is a mask, not a modulo.
func computeStripes() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxStripes {
		n = maxStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// stripe picks the calling goroutine's slot. Go exposes neither
// goroutine-local storage nor a stable P identity outside the runtime, so
// the slot is derived from the address of a stack local: distinct
// goroutines occupy distinct stacks, so concurrent writers spread across
// stripes and the padded slots keep them on distinct cache lines. The
// address is hashed (Fibonacci multiplier), never dereferenced or retained,
// and it does not matter that a goroutine may map to different stripes at
// different call depths — any stripe is correct, stripes only spread
// contention.
func stripe() uintptr {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b))) * 0x9E3779B97F4A7C15
	return uintptr(h>>33) & stripeMask
}

// slot is one cache-line-padded counter cell. 64 bytes is the line size of
// every mainstream 64-bit core this repo targets; the padding prevents
// false sharing between adjacent stripes.
type slot struct {
	v atomic.Uint64
	_ [56]byte
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing counter sharded across padded
// per-stripe slots: Add touches one stripe's cache line, Value merges all
// stripes. The zero value is not usable; get one from a Registry.
type Counter struct {
	slots []slot
}

func newCounter() *Counter { return &Counter{slots: make([]slot, numStripes)} }

// Inc adds one.
func (c *Counter) Inc() { c.slots[stripe()].v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.slots[stripe()].v.Add(n) }

// Value merges the stripes. Concurrent Adds may or may not be included —
// the usual monotonic-read guarantee of a statistics counter.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.slots {
		total += c.slots[i].v.Load()
	}
	return total
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a last-writer-wins float64 (set-dominated, so a single atomic
// word — sharding would make Value ambiguous).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

func floatBits(f float64) uint64 { return *(*uint64)(unsafe.Pointer(&f)) }
func bitsFloat(b uint64) float64 { return *(*float64)(unsafe.Pointer(&b)) }

// ---------------------------------------------------------------------------
// Histogram

// histBuckets covers every int64 nanosecond duration: bucket 0 holds exact
// zeros and bucket b (1 ≤ b ≤ 63) holds durations in [2^(b-1), 2^b) ns.
const histBuckets = 64

// histStripe is one stripe's bucket array. The trailing pad keeps the next
// stripe's first buckets off this stripe's last cache line.
type histStripe struct {
	count [histBuckets]atomic.Uint64
	sum   atomic.Uint64 // total observed ns
	_     [56]byte
}

// Histogram is a log₂-bucketed duration histogram sharded like Counter.
// Observe is allocation-free: one bucket increment and one sum add on the
// caller's stripe. Percentile resolution is the bucket width — a factor of
// two — which is exactly the precision a latency SLO dashboard needs and
// cheap enough to sit on the unsampled hot path.
type Histogram struct {
	stripes []histStripe
}

func newHistogram() *Histogram { return &Histogram{stripes: make([]histStripe, numStripes)} }

// Observe records one duration. Negative durations (clock steps) count as
// zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns)) // 0 for ns == 0, else 1 + floor(log₂ ns)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	s := &h.stripes[stripe()]
	s.count[b].Add(1)
	s.sum.Add(uint64(ns))
}

// HistSnapshot is a merged point-in-time view of a Histogram.
type HistSnapshot struct {
	Counts [histBuckets]uint64
	Count  uint64
	SumNs  uint64
}

// Snapshot merges the stripes. Like Value, concurrent Observes may be
// partially included.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.count {
			c := st.count[b].Load()
			s.Counts[b] += c
			s.Count += c
		}
		s.SumNs += st.sum.Load()
	}
	return s
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) by walking the
// cumulative bucket counts and interpolating linearly inside the landing
// bucket. The estimate is exact to within the bucket's factor-of-two
// bounds. Returns 0 for an empty histogram.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			if b == 0 {
				return 0
			}
			lo := int64(1) << (b - 1)
			hi := int64(1) << b
			before := float64(cum - c)
			frac := (rank - before) / float64(c)
			return time.Duration(lo + int64(frac*float64(hi-lo)))
		}
	}
	return time.Duration(int64(1) << (histBuckets - 2)) // top bucket's lower bound
}

// bucketUpperNs is bucket b's inclusive upper bound in ns (every value in
// the bucket is ≤ 2^b − 1 < 2^b, so 2^b is a valid Prometheus `le`).
func bucketUpperNs(b int) uint64 {
	if b == 0 {
		return 0
	}
	return uint64(1) << b
}

// ---------------------------------------------------------------------------
// Registry

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// series is one named time series (family name plus an optional fixed
// label set baked into the name).
type series struct {
	name   string // full series name, e.g. `fsi_http_requests_total{path="/query"}`
	labels string // the {...} part without braces, "" when unlabeled
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
	cf     func() uint64
	gf     func() float64
}

// family groups the series sharing one metric name, so HELP/TYPE render
// once per family as the exposition format requires.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge" or "histogram"
	series []*series
}

// Registry is a set of named metrics rendered in Prometheus text format.
// Metric names may embed a fixed label set — Counter(`x_total{path="/q"}`)
// — and series of one family (same name before the brace) share one
// HELP/TYPE header. Registration is idempotent: asking for an existing
// series of the same kind returns the same metric object; a kind conflict
// panics (it is a programming error, like a duplicate flag).
type Registry struct {
	mu       sync.Mutex
	families []*family
	famIdx   map[string]*family
	seriesIx map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{famIdx: map[string]*family{}, seriesIx: map[string]*series{}}
}

// Counter registers (or returns) the named sharded counter.
func (r *Registry) Counter(name, help string) *Counter {
	s := r.register(name, help, "counter", kindCounter)
	if s.c == nil {
		s.c = newCounter()
	}
	return s.c
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	s := r.register(name, help, "gauge", kindGauge)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram registers (or returns) the named log₂ histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	s := r.register(name, help, "histogram", kindHistogram)
	if s.h == nil {
		s.h = newHistogram()
	}
	return s.h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counters that already live elsewhere (the result cache's
// mutex-guarded hit/miss counters, say) and would be silly to double-count.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	s := r.register(name, help, "counter", kindCounterFunc)
	s.cf = fn
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	s := r.register(name, help, "gauge", kindGaugeFunc)
	s.gf = fn
}

func (r *Registry) register(name, help, typ string, kind metricKind) *series {
	famName, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.seriesIx[name]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return s
	}
	f, ok := r.famIdx[famName]
	if !ok {
		f = &family{name: famName, help: help, typ: typ}
		r.famIdx[famName] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric family %q re-registered as %s (was %s)", famName, typ, f.typ))
	}
	s := &series{name: name, labels: labels, kind: kind}
	f.series = append(f.series, s)
	r.seriesIx[name] = s
	return s
}

// splitName separates `family{labels}` into its parts.
func splitName(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// WritePrometheus renders every registered metric in the text exposition
// format (version 0.0.4): one HELP/TYPE header per family, counters and
// gauges as single samples, histograms as cumulative `le` buckets plus
// _sum and _count. Bucket lines span only the occupied range of the log₂
// buckets (plus +Inf), keeping the page compact.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var sb strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(&sb, "%s %d\n", s.name, s.c.Value())
			case kindCounterFunc:
				fmt.Fprintf(&sb, "%s %d\n", s.name, s.cf())
			case kindGauge:
				fmt.Fprintf(&sb, "%s %s\n", s.name, formatFloat(s.g.Value()))
			case kindGaugeFunc:
				fmt.Fprintf(&sb, "%s %s\n", s.name, formatFloat(s.gf()))
			case kindHistogram:
				writeHistogram(&sb, f.name, s)
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeHistogram(sb *strings.Builder, fam string, s *series) {
	snap := s.h.Snapshot()
	lo, hi := 0, -1
	for b, c := range snap.Counts {
		if c == 0 {
			continue
		}
		if hi < 0 {
			lo = b
		}
		hi = b
	}
	var cum uint64
	for b := 0; b <= hi; b++ {
		cum += snap.Counts[b]
		if b < lo {
			continue
		}
		le := formatFloat(float64(bucketUpperNs(b)) / 1e9)
		fmt.Fprintf(sb, "%s_bucket{%sle=%q} %d\n", fam, labelPrefix(s.labels), le, cum)
	}
	fmt.Fprintf(sb, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, labelPrefix(s.labels), snap.Count)
	fmt.Fprintf(sb, "%s_sum%s %s\n", fam, labelSuffix(s.labels), formatFloat(float64(snap.SumNs)/1e9))
	fmt.Fprintf(sb, "%s_count%s %d\n", fam, labelSuffix(s.labels), snap.Count)
}

// labelPrefix renders a series' fixed labels for merging with `le`.
func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// labelSuffix renders a series' fixed labels for the _sum/_count samples.
func labelSuffix(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
