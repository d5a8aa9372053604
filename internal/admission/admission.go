// Package admission is the serving tier's overload-control layer: a bounded
// inflight gate with a deadline-aware wait queue, per-client token-bucket
// quotas, and singleflight coalescing of identical in-flight queries
// (coalesce.go). It sits between the HTTP handlers and the engine so that
// under saturation the process sheds excess load with cheap 429/503
// responses instead of queueing unboundedly and collapsing: the queries it
// does accept keep their latency budget, and everything it turns away is
// counted per reason in the obs registry.
//
// The pipeline for one request is
//
//	quota (per-client token bucket) → deadline feasibility → inflight gate
//
// and every exit is classified as accepted, rejected (the client's fault:
// over quota, or a deadline too short to ever be met) or shed (the server's
// fault: queue full, queue timeout, draining). Rejected work should be
// retried after backoff; shed work signals the server is at capacity.
//
// The uncontended fast path — tokens available, no queue — is a handful of
// atomic operations and zero allocations; Ticket is a plain value and the
// gate never allocates per request.
package admission

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastintersect/internal/obs"
)

// Sentinel errors returned by Gate.Acquire, each mapped to one reason label
// on the admission counters. Quota and deadline failures are rejections
// (HTTP 429 / 503 with Retry-After); queue and drain failures are sheds
// (503 with Retry-After).
var (
	// ErrQuotaExceeded: the per-client token bucket is empty.
	ErrQuotaExceeded = errors.New("admission: client quota exceeded")
	// ErrDeadlineInfeasible: the estimated queue wait already exceeds the
	// request's remaining deadline budget, so queueing it would only burn a
	// queue slot to produce a timeout.
	ErrDeadlineInfeasible = errors.New("admission: deadline shorter than estimated queue wait")
	// ErrQueueFull: the wait queue is at -queue-depth capacity.
	ErrQueueFull = errors.New("admission: queue full")
	// ErrQueueTimeout: the request's context expired while queued.
	ErrQueueTimeout = errors.New("admission: deadline expired while queued")
	// ErrDraining: the gate is shutting down and admits no new work.
	ErrDraining = errors.New("admission: draining")
)

// Config sizes a Gate. The zero value is usable: every field has a
// CPU-derived or permissive default.
type Config struct {
	// MaxInflight bounds concurrently executing requests (0 = 2×GOMAXPROCS).
	MaxInflight int
	// QueueDepth bounds requests waiting for an inflight slot
	// (0 = 4×MaxInflight, negative = no queue: shed immediately when full).
	QueueDepth int
	// ClientQPS is the per-client token-bucket refill rate (0 = no quotas).
	ClientQPS float64
	// ClientBurst is the bucket capacity (0 = max(1, 2×ClientQPS)).
	ClientBurst float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxInflight <= 0 {
		out.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	switch {
	case out.QueueDepth == 0:
		out.QueueDepth = 4 * out.MaxInflight
	case out.QueueDepth < 0:
		out.QueueDepth = 0
	}
	if out.ClientQPS > 0 && out.ClientBurst <= 0 {
		out.ClientBurst = max(1, 2*out.ClientQPS)
	}
	return out
}

// Ticket is the proof of admission returned by Acquire. It is a plain value
// (no allocation); pass it back to Release exactly once when the request
// finishes.
type Ticket struct {
	start int64 // admission time, ns (monotonic base via time.Since at Release)
}

// Gate is the bounded-inflight admission gate. One Gate serves one engine;
// all methods are safe for concurrent use.
type Gate struct {
	cfg Config

	sem    chan struct{} // inflight slots; len(sem) = current inflight
	queued atomic.Int64  // requests blocked in Acquire waiting for a slot

	// srvNs is an EWMA of observed service time (Acquire→Release), the basis
	// of the queue-wait estimate deadline feasibility uses. Seeded at 1ms so
	// the first requests have a sane estimate.
	srvNs atomic.Int64

	draining atomic.Bool

	epoch time.Time // base for Ticket.start (avoids storing a time.Time per ticket)

	accepted       atomic.Uint64
	rejectQuota    atomic.Uint64
	rejectDeadline atomic.Uint64
	shedQueueFull  atomic.Uint64
	shedTimeout    atomic.Uint64
	shedDraining   atomic.Uint64

	queueWait *obs.Histogram

	quota quotaTable
}

// NewGate builds a Gate and registers its metrics — the
// fsi_admission_{accepted,rejected,shed}_total counters (reason-labelled),
// the fsi_inflight gauge and the fsi_queue_wait_seconds histogram — in reg.
// A nil reg registers into a private registry (tests that only read
// Stats).
func NewGate(cfg Config, reg *obs.Registry) *Gate {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := cfg.withDefaults()
	g := &Gate{
		cfg:   c,
		sem:   make(chan struct{}, c.MaxInflight),
		epoch: time.Now(),
	}
	g.srvNs.Store(int64(time.Millisecond))
	g.quota.init(c.ClientQPS, c.ClientBurst)

	reg.CounterFunc(`fsi_admission_accepted_total`,
		"Requests admitted past the gate.", g.accepted.Load)
	reg.CounterFunc(`fsi_admission_rejected_total{reason="quota"}`,
		"Requests rejected by admission control, by reason.", g.rejectQuota.Load)
	reg.CounterFunc(`fsi_admission_rejected_total{reason="deadline"}`, "", g.rejectDeadline.Load)
	reg.CounterFunc(`fsi_admission_shed_total{reason="queue_full"}`,
		"Requests shed under overload, by reason.", g.shedQueueFull.Load)
	reg.CounterFunc(`fsi_admission_shed_total{reason="queue_timeout"}`, "", g.shedTimeout.Load)
	reg.CounterFunc(`fsi_admission_shed_total{reason="draining"}`, "", g.shedDraining.Load)
	reg.GaugeFunc("fsi_inflight", "Requests currently executing past the admission gate.",
		func() float64 { return float64(len(g.sem)) })
	g.queueWait = reg.Histogram("fsi_queue_wait_seconds",
		"Time requests spent queued for an inflight slot (queued acquisitions only).")
	return g
}

// Acquire runs the admission pipeline for one request. client is the quota
// key ("" = unmetered). On success the returned Ticket must be Released;
// on error the request was not admitted and the error identifies the
// counter it was charged to (see the sentinel errors above).
//
// The fast path — quota ok, a free inflight slot — takes no locks beyond
// the quota shard and performs zero allocations.
func (g *Gate) Acquire(ctx context.Context, client string) (Ticket, error) {
	if g.draining.Load() {
		g.shedDraining.Add(1)
		return Ticket{}, ErrDraining
	}
	if !g.quota.allow(client) {
		g.rejectQuota.Add(1)
		return Ticket{}, ErrQuotaExceeded
	}

	// Fast path: a slot is free right now.
	select {
	case g.sem <- struct{}{}:
		g.accepted.Add(1)
		return Ticket{start: int64(time.Since(g.epoch))}, nil
	default:
	}

	// Slow path: we would have to queue. Check feasibility first — if the
	// expected wait already exceeds the remaining budget, failing now is
	// strictly better than timing out in the queue later.
	if dl, ok := ctx.Deadline(); ok {
		if est := g.estimateWait(); est > time.Until(dl) {
			g.rejectDeadline.Add(1)
			return Ticket{}, ErrDeadlineInfeasible
		}
	}
	if g.queued.Add(1) > int64(g.cfg.QueueDepth) {
		g.queued.Add(-1)
		g.shedQueueFull.Add(1)
		return Ticket{}, ErrQueueFull
	}
	enq := time.Now()
	select {
	case g.sem <- struct{}{}:
		g.queued.Add(-1)
		g.queueWait.Observe(time.Since(enq))
		if g.draining.Load() {
			// Drain raced with our dequeue: give the slot back.
			<-g.sem
			g.shedDraining.Add(1)
			return Ticket{}, ErrDraining
		}
		g.accepted.Add(1)
		return Ticket{start: int64(time.Since(g.epoch))}, nil
	case <-ctx.Done():
		g.queued.Add(-1)
		g.queueWait.Observe(time.Since(enq))
		g.shedTimeout.Add(1)
		return Ticket{}, ErrQueueTimeout
	}
}

// Release returns t's inflight slot and folds its service time into the
// queue-wait estimator. Call exactly once per successful Acquire.
func (g *Gate) Release(t Ticket) {
	dur := int64(time.Since(g.epoch)) - t.start
	if dur > 0 {
		// EWMA with α = 1/8, lock-free.
		for {
			old := g.srvNs.Load()
			nw := old + (dur-old)/8
			if g.srvNs.CompareAndSwap(old, nw) {
				break
			}
		}
	}
	<-g.sem
}

// estimateWait predicts how long a request enqueued now would wait for a
// slot: its queue position divided by the gate's drain rate
// (MaxInflight slots each turning over every srvNs).
func (g *Gate) estimateWait() time.Duration {
	pos := g.queued.Load() + 1 // this request would queue behind the current queue
	srv := g.srvNs.Load()
	return time.Duration(pos * srv / int64(g.cfg.MaxInflight))
}

// Drain flips the gate into shutdown mode — new Acquires shed with
// ErrDraining — and waits until every admitted request has Released (or ctx
// expires). Queued requests are shed as they surface. Used by fsiserve's
// graceful shutdown before the HTTP server itself stops.
func (g *Gate) Drain(ctx context.Context) error {
	g.draining.Store(true)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if g.queued.Load() == 0 && len(g.sem) == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Stats is a point-in-time snapshot of the gate's accounting, from which
// tests verify accepted + rejected + shed = offered.
type Stats struct {
	Accepted uint64
	Rejected uint64 // quota + deadline
	Shed     uint64 // queue_full + queue_timeout + draining
	Inflight int
	Queued   int64
}

// Stats returns the gate's current accounting snapshot.
func (g *Gate) Stats() Stats {
	return Stats{
		Accepted: g.accepted.Load(),
		Rejected: g.rejectQuota.Load() + g.rejectDeadline.Load(),
		Shed:     g.shedQueueFull.Load() + g.shedTimeout.Load() + g.shedDraining.Load(),
		Inflight: len(g.sem),
		Queued:   g.queued.Load(),
	}
}

// quotaTable is the per-client token-bucket map. A plain mutex-guarded map:
// quota checks are one lock + a few float ops, and the serving tier's client
// cardinality is modest. The table resets itself when it outgrows
// quotaMaxClients so an address-churning client population cannot grow it
// without bound.
type quotaTable struct {
	qps, burst float64
	mu         sync.Mutex
	m          map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

const quotaMaxClients = 1 << 16

func (q *quotaTable) init(qps, burst float64) {
	q.qps, q.burst = qps, burst
	if qps > 0 {
		q.m = make(map[string]*bucket)
	}
}

// allow takes one token from client's bucket, refilling it for elapsed time
// first. Unmetered gates (qps == 0) and the empty client key always pass.
func (q *quotaTable) allow(client string) bool {
	if q.qps <= 0 || client == "" {
		return true
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.m[client]
	if b == nil {
		if len(q.m) >= quotaMaxClients {
			q.m = make(map[string]*bucket)
		}
		b = &bucket{tokens: q.burst, last: now}
		q.m[client] = b
	} else {
		b.tokens = min(q.burst, b.tokens+now.Sub(b.last).Seconds()*q.qps)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
