package admission

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastintersect/internal/obs"
	"fastintersect/internal/race"
	"fastintersect/internal/workload"
)

func TestGateFastPath(t *testing.T) {
	g := NewGate(Config{MaxInflight: 2}, nil)
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if st := g.Stats(); st.Accepted != 1 || st.Inflight != 1 {
		t.Fatalf("stats = %+v, want accepted=1 inflight=1", st)
	}
	g.Release(tk)
	if st := g.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight after release = %d, want 0", st.Inflight)
	}
}

func TestGateQueueFull(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, QueueDepth: -1}, nil) // negative = no queue
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	if _, err := g.Acquire(context.Background(), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second Acquire err = %v, want ErrQueueFull", err)
	}
	if st := g.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	g.Release(tk)
}

func TestGateQueueTimeout(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, QueueDepth: 4}, nil)
	// Crush the service-time estimate so deadline feasibility passes and the
	// request really queues.
	g.srvNs.Store(1)
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx, ""); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued Acquire err = %v, want ErrQueueTimeout", err)
	}
	g.Release(tk)
}

func TestGateDeadlineInfeasible(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, QueueDepth: 4}, nil)
	g.srvNs.Store(int64(time.Second)) // queue wait estimate: ~1s per queued slot
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx, ""); !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("Acquire err = %v, want ErrDeadlineInfeasible", err)
	}
	if st := g.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	g.Release(tk)
}

func TestGateQuota(t *testing.T) {
	g := NewGate(Config{MaxInflight: 8, ClientQPS: 1, ClientBurst: 2}, nil)
	for i := 0; i < 2; i++ {
		tk, err := g.Acquire(context.Background(), "10.0.0.1")
		if err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		g.Release(tk)
	}
	if _, err := g.Acquire(context.Background(), "10.0.0.1"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota Acquire err = %v, want ErrQuotaExceeded", err)
	}
	// A different client has its own bucket.
	tk, err := g.Acquire(context.Background(), "10.0.0.2")
	if err != nil {
		t.Fatalf("other-client Acquire: %v", err)
	}
	g.Release(tk)
	// The empty client key is unmetered.
	tk, err = g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("unmetered Acquire: %v", err)
	}
	g.Release(tk)
}

func TestGateQuotaRefill(t *testing.T) {
	g := NewGate(Config{MaxInflight: 8, ClientQPS: 1000, ClientBurst: 1}, nil)
	tk, err := g.Acquire(context.Background(), "c")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	g.Release(tk)
	if _, err := g.Acquire(context.Background(), "c"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want immediate ErrQuotaExceeded, got %v", err)
	}
	time.Sleep(5 * time.Millisecond) // 1000 qps refills a token in 1ms
	tk, err = g.Acquire(context.Background(), "c")
	if err != nil {
		t.Fatalf("post-refill Acquire: %v", err)
	}
	g.Release(tk)
}

func TestGateDrain(t *testing.T) {
	g := NewGate(Config{MaxInflight: 2, QueueDepth: 4}, nil)
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		done <- g.Drain(ctx)
	}()
	// New work is shed once draining starts. The flag is set by the drain
	// goroutine, so acquisitions racing ahead of it may still succeed —
	// release those and retry until the flag lands.
	deadline := time.Now().Add(time.Second)
	for {
		tk2, err := g.Acquire(context.Background(), "")
		if errors.Is(err, ErrDraining) {
			break
		}
		if err == nil {
			g.Release(tk2)
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain flag never observed; last err %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	g.Release(tk)
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := g.Stats(); st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("post-drain stats = %+v", st)
	}
}

// TestGateAccounting hammers the gate concurrently and checks the invariant
// TestOverloadShedding also asserts on every point it offers: every Acquire
// outcome is counted, so accepted + rejected + shed = offered.
func TestGateAccounting(t *testing.T) {
	g := NewGate(Config{MaxInflight: 2, QueueDepth: 2}, nil)
	const workers, per = 8, 200
	var offered atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				offered.Add(1)
				tk, err := g.Acquire(ctx, "")
				if err == nil {
					time.Sleep(50 * time.Microsecond)
					g.Release(tk)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	st := g.Stats()
	if got := st.Accepted + st.Rejected + st.Shed; got != offered.Load() {
		t.Fatalf("accepted(%d)+rejected(%d)+shed(%d) = %d, want offered %d",
			st.Accepted, st.Rejected, st.Shed, got, offered.Load())
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
}

func TestGateMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(Config{MaxInflight: 1}, reg)
	tk, _ := g.Acquire(context.Background(), "")
	g.Release(tk)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"fsi_admission_accepted_total 1",
		`fsi_admission_rejected_total{reason="quota"} 0`,
		`fsi_admission_shed_total{reason="queue_full"} 0`,
		"fsi_inflight 0",
		"fsi_queue_wait_seconds_count 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}

// TestGateAcquireAllocs guards the acceptance criterion that the admission
// fast path adds zero steady-state allocations.
func TestGateAcquireAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation bounds are not meaningful under -race")
	}
	g := NewGate(Config{MaxInflight: 4}, nil)
	ctx := context.Background()
	avg := testing.AllocsPerRun(1000, func() {
		tk, err := g.Acquire(ctx, "")
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		g.Release(tk)
	})
	if avg != 0 {
		t.Fatalf("Acquire/Release allocs = %.1f, want 0", avg)
	}
}

func TestCoalescerSharesResult(t *testing.T) {
	c := NewCoalescer[int](nil)
	release := make(chan struct{})
	started := make(chan struct{})
	var execs atomic.Int32
	var wg sync.WaitGroup
	results := make([]int, 8)
	sharedN := atomic.Int32{}

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := c.Do(context.Background(), Key{"a AND b", 1}, func() (int, error) {
			close(started)
			<-release
			execs.Add(1)
			return 42, nil
		})
		if err != nil || shared {
			t.Errorf("leader: v=%d shared=%v err=%v", v, shared, err)
		}
		results[0] = v
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := c.Do(context.Background(), Key{"a AND b", 1}, func() (int, error) {
				execs.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			if shared {
				sharedN.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Give followers a moment to attach, then let the leader finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d, want 42", i, v)
		}
	}
	if execs.Load() != 1 {
		t.Fatalf("fn executed %d times, want 1", execs.Load())
	}
	if sharedN.Load() == 0 {
		t.Fatal("no follower reported shared=true")
	}
}

func TestCoalescerSharesError(t *testing.T) {
	c := NewCoalescer[int](nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = c.Do(context.Background(), Key{"q", 7}, func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
	}()
	<-started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), Key{"q", 7}, func() (int, error) { return 0, boom })
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("errs[%d] = %v, want boom", i, err)
		}
	}
}

func TestCoalescerFollowerCancel(t *testing.T) {
	c := NewCoalescer[int](nil)
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), Key{"q", 1}, func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, shared, err := c.Do(ctx, Key{"q", 1}, func() (int, error) { return 1, nil })
	if !shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower: shared=%v err=%v, want shared cancel", shared, err)
	}
	close(release)
}

func TestCoalescerPanic(t *testing.T) {
	c := NewCoalescer[int](nil)
	_, _, err := c.Do(context.Background(), Key{"q", 1}, func() (int, error) { panic("kernel bug") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic conversion", err)
	}
	// The entry must be gone: a fresh Do runs fn again.
	v, shared, err := c.Do(context.Background(), Key{"q", 1}, func() (int, error) { return 5, nil })
	if v != 5 || shared || err != nil {
		t.Fatalf("post-panic Do = (%d, %v, %v), want fresh execution", v, shared, err)
	}
}

func TestCoalescerGenerationsDistinct(t *testing.T) {
	c := NewCoalescer[int](nil)
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), Key{"q", 1}, func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	// Same canonical text, newer generation: must NOT coalesce.
	v, shared, err := c.Do(context.Background(), Key{"q", 2}, func() (int, error) { return 2, nil })
	if v != 2 || shared || err != nil {
		t.Fatalf("cross-generation Do = (%d, %v, %v), want independent execution", v, shared, err)
	}
	close(release)
}

// The saturation check: a gate in front of a fixed, cancellable service
// time, offered open-loop Poisson arrivals at multiples of its measured
// capacity. The service stands in for the engine, so evaluation cost does
// not count and capacity lands near shedInflight/shedService on any host.
const (
	shedService  = 5 * time.Millisecond  // per-request service time
	shedDeadline = 50 * time.Millisecond // shedding mode's request budget; the goodput cutoff in both modes
	shedInflight = 4                     // the shedding gate's concurrency and queue depth
	shedWindow   = 500 * time.Millisecond
	shedSeed     = 42
)

// serveFixed is the stand-in service: it holds its slot for shedService
// unless ctx ends first.
func serveFixed(ctx context.Context) error {
	tm := time.NewTimer(shedService)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// shedPoint is one (mode, offered rate) point of the sweep.
type shedPoint struct {
	offered, accepted, rejected, shed int
	p99                               time.Duration // arrival→completion, completed requests
	goodput                           float64       // completions within shedDeadline per second of wall
}

// runShedPoint offers qps·shedWindow requests on an open-loop arrival
// schedule to a fresh gate. With shed the gate queues at most shedInflight
// requests and each request carries shedDeadline; without it the queue
// never fills and nothing has a deadline.
func runShedPoint(t *testing.T, shed bool, qps float64, seed uint64) shedPoint {
	t.Helper()
	n := max(1, int(qps*shedWindow.Seconds()))
	arrivals := workload.Arrivals(n, qps, seed)
	cfg := Config{MaxInflight: shedInflight, QueueDepth: shedInflight}
	if !shed {
		cfg.QueueDepth = 1 << 20
	}
	g := NewGate(cfg, nil)

	const (
		ocComplete = iota
		ocTimedOut // admitted, then the deadline cut the service short
		ocRejected
		ocShed
	)
	outcomes := make([]uint8, n)
	latencies := make([]time.Duration, n) // valid when ocComplete
	done := make([]time.Duration, n)      // completion offset from start
	var wg sync.WaitGroup
	start := time.Now()
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(arrivals[i])))
			arrived := time.Now()
			ctx := context.Background()
			if shed {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, shedDeadline)
				defer cancel()
			}
			tk, err := g.Acquire(ctx, "")
			switch {
			case errors.Is(err, ErrDeadlineInfeasible): // no quotas are set
				outcomes[i] = ocRejected
			case err != nil:
				outcomes[i] = ocShed
			default:
				err = serveFixed(ctx)
				g.Release(tk)
				if err != nil {
					outcomes[i] = ocTimedOut
				} else {
					outcomes[i] = ocComplete
					latencies[i] = time.Since(arrived)
				}
			}
			done[i] = time.Since(start)
		}()
	}
	wg.Wait()
	wall := slices.Max(done)

	pt := shedPoint{offered: n}
	var acc []time.Duration
	good := 0
	for i, oc := range outcomes {
		switch oc {
		case ocComplete:
			pt.accepted++
			acc = append(acc, latencies[i])
			if latencies[i] <= shedDeadline {
				good++
			}
		case ocTimedOut:
			pt.accepted++
		case ocRejected:
			pt.rejected++
		case ocShed:
			pt.shed++
		}
	}
	// Every request is counted once, by the gate as by its caller.
	st := g.Stats()
	if got := st.Accepted + st.Rejected + st.Shed; got != uint64(n) {
		t.Errorf("accepted(%d)+rejected(%d)+shed(%d) = %d, offered %d", st.Accepted, st.Rejected, st.Shed, got, n)
	}
	if st.Accepted != uint64(pt.accepted) || st.Rejected != uint64(pt.rejected) || st.Shed != uint64(pt.shed) {
		t.Errorf("gate counted accepted %d, rejected %d, shed %d; callers saw %d, %d, %d",
			st.Accepted, st.Rejected, st.Shed, pt.accepted, pt.rejected, pt.shed)
	}
	slices.Sort(acc)
	pt.p99 = nearestRank(acc, 99)
	pt.goodput = float64(good) / wall.Seconds()
	return pt
}

// nearestRank returns the p-th percentile (nearest rank) of sorted.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// measureCapacity runs shedInflight callers of the service back to back
// for 300 ms and returns completed requests per second.
func measureCapacity() float64 {
	const dur = 300 * time.Millisecond
	var wg sync.WaitGroup
	var done [shedInflight]int
	start := time.Now()
	for w := range shedInflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				serveFixed(context.Background()) //nolint:errcheck // never cancelled
				done[w]++
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, d := range done {
		n += d
	}
	return float64(n) / time.Since(start).Seconds()
}

// TestOverloadShedding is the load-shedding tradeoff under saturation. At
// 2× and 3× measured capacity the shedding gate (shedInflight slots, as many
// queue places, shedDeadline per request) holds accepted p99 within 3× of
// the uncontended p99 (the shedding gate's at 0.5× capacity), while an
// unbounded queue with no deadlines does not — so the load really
// saturates — and shedding never costs goodput. Every point's requests are
// each counted once as accepted, rejected or shed.
func TestOverloadShedding(t *testing.T) {
	if testing.Short() {
		t.Skip("offers multi-second open-loop load")
	}
	capQPS := measureCapacity()
	point := func(shed bool, mult float64) shedPoint {
		return runShedPoint(t, shed, mult*capQPS, shedSeed+uint64(mult*1000))
	}
	uncontended := point(true, 0.5).p99
	if capQPS <= 0 || uncontended <= 0 {
		t.Fatalf("degenerate calibration: capacity %.1f qps, uncontended p99 %v", capQPS, uncontended)
	}
	for _, mult := range []float64{2, 3} {
		shed, noshed := point(true, mult), point(false, mult)
		t.Logf("x%.0f of %.0f qps: accepted p99 shed %v (%.2fx uncontended %v), noshed %v; goodput shed %.0f, noshed %.0f qps; shed %d rejected %d of %d",
			mult, capQPS, shed.p99, float64(shed.p99)/float64(uncontended), uncontended, noshed.p99,
			shed.goodput, noshed.goodput, shed.shed, shed.rejected, shed.offered)
		// The 3× bound; by design the gate needs about 2×, since a full
		// queue drains in one service time.
		if shed.p99 > 3*uncontended {
			t.Errorf("shed x%.0f accepted p99 %v exceeds 3x uncontended %v", mult, shed.p99, uncontended)
		}
		if noshed.p99 <= 3*uncontended {
			t.Errorf("noshed x%.0f accepted p99 %v within 3x uncontended %v: the load does not saturate", mult, noshed.p99, uncontended)
		}
		if shed.goodput < noshed.goodput {
			t.Errorf("shed x%.0f goodput %.0f < noshed %.0f qps", mult, shed.goodput, noshed.goodput)
		}
	}
}
