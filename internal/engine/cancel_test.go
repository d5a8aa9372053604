package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fastintersect/internal/bitseg"
	"fastintersect/internal/race"
	"fastintersect/internal/sets"
)

// numGoroutineSettled samples runtime.NumGoroutine after giving transient
// runtime goroutines a moment to exit, retrying until the count stops
// shrinking toward the baseline or the budget runs out.
func numGoroutineSettled(baseline int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > baseline; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestQueryContextDeadlineMidFanout is the tentpole cancellation test: a
// deadline expiring while a 4-shard query is mid-evaluation must surface
// context.DeadlineExceeded, leave no goroutine behind and leave the engine
// answering exactly — the evaluation aborts at its next poll and returns
// its pooled context clean.
func TestQueryContextDeadlineMidFanout(t *testing.T) {
	e := buildTestEngine(t, Config{
		Shards:    4,
		CacheSize: 0,
		Faults:    &FaultPlan{Shard: -1, Delay: 50 * time.Millisecond},
	}, 2000)
	before := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		res, err := e.QueryContext(ctx, "m2 AND m3")
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iter %d: err = %v, want context.DeadlineExceeded", i, err)
		}
		if res != nil {
			t.Fatalf("iter %d: res = %v, want nil on abort", i, res)
		}
	}

	if after := numGoroutineSettled(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}

	// The engine whose queries aborted must stay fully usable: pooled
	// contexts were returned clean, so once its faults are disarmed it
	// answers exactly what a fault-free engine does.
	e.cfg.Faults = nil
	res, err := e.Query("m2 AND m3")
	if err != nil || len(res.Docs) == 0 {
		t.Fatalf("post-abort query: res=%v err=%v", res, err)
	}
	want, err := buildTestEngine(t, Config{Shards: 4, CacheSize: 0}, 2000).Query("m2 AND m3")
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Equal(res.Docs, want.Docs) {
		t.Fatalf("post-abort query returned %d docs, want the fault-free engine's %d", len(res.Docs), len(want.Docs))
	}
}

// TestFaultDelayStartsNoGoroutine pins the execution model: a query
// evaluates its shards one after another on the calling goroutine. With
// every shard held 20ms by an injected delay, the goroutine count sampled
// while a 4-shard Query, QueryCount or QueryBatch runs never exceeds the
// settled baseline plus the goroutine making the call; a per-shard fan-out
// would add one goroutine per shard in flight.
func TestFaultDelayStartsNoGoroutine(t *testing.T) {
	e := buildTestEngine(t, Config{
		Shards:    4,
		CacheSize: 0,
		Faults:    &FaultPlan{Shard: -1, Delay: 20 * time.Millisecond},
	}, 2000)
	const q = "m2 AND m3"
	calls := []struct {
		name string
		call func() error
	}{
		{"Query", func() error { _, err := e.Query(q); return err }},
		{"QueryCount", func() error { _, err := e.QueryCount(q); return err }},
		{"QueryBatch", func() error { return e.QueryBatch([]string{q, "m5"})[1].Err }},
	}
	base := runtime.NumGoroutine() + 1 // each subtest runs on a goroutine of its own
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			base := numGoroutineSettled(base)
			done := make(chan error, 1)
			go func() { done <- tc.call() }()
			peak := 0
			for {
				peak = max(peak, runtime.NumGoroutine())
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					if peak > base+1 {
						t.Fatalf("%d goroutines during the call, want at most %d: the settled %d plus the caller", peak, base+1, base)
					}
					return
				case <-time.After(time.Millisecond):
				}
			}
		})
	}
}

// TestQueryContextPreCancelled: an already-cancelled context never reaches
// shard evaluation.
func TestQueryContextPreCancelled(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 0}, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, "m2"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryContextNilAndBackground: nil and background contexts behave
// exactly like Query.
func TestQueryContextNilAndBackground(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2}, 500)
	want, err := e.Query("m2 AND m3")
	if err != nil {
		t.Fatal(err)
	}
	for name, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
		got, err := e.QueryContext(ctx, "m2 AND m3")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Docs) != len(want.Docs) {
			t.Fatalf("%s: %d docs, want %d", name, len(got.Docs), len(want.Docs))
		}
	}
}

// TestFaultPanicBarrier: an injected panic becomes a query error — the
// process survives, the error names the shard, and the engine keeps
// serving afterwards. Covers one shard and a 4-shard loop.
func TestFaultPanicBarrier(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := buildTestEngine(t, Config{
				Shards:    shards,
				CacheSize: 0,
				Faults:    &FaultPlan{Shard: -1, PanicEvery: 1},
			}, 1000)
			_, err := e.Query("m2 AND m3")
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("err = %v, want panic conversion", err)
			}
			// Disarm the faults; the engine must still work.
			e.cfg.Faults = nil
			res, err := e.Query("m2 AND m3")
			if err != nil || len(res.Docs) == 0 {
				t.Fatalf("post-panic query: res=%v err=%v", res, err)
			}
		})
	}
}

// TestPanicBarrierDropsProbeWindow: a panic can cut a BitProbe run short
// with bits still set in the context's window, or a BitsegAnd run with its
// operands still in the context's scratch, and the context evaluates again
// once evalShard has converted the panic (pooled, or on a batch's next
// query); the barrier must drop both, or a later pair would probe a dirty
// window and a later BitsegAnd would intersect stale operands too.
func TestPanicBarrierDropsProbeWindow(t *testing.T) {
	e := New(Config{Faults: &FaultPlan{Shard: -1, PanicEvery: 1}})
	c := getExecCtx()
	defer putExecCtx(c)
	c.window()[0] = 1                         // what a run cut short leaves behind
	c.bits = append(c.bits, new(bitseg.List)) // likewise
	if _, _, err := e.evalShard(c, nil, 0, nil); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want panic conversion", err)
	}
	if c.probe != nil {
		t.Fatal("the panic barrier kept the BitProbe window of a run it cut short")
	}
	if len(c.bits) != 0 {
		t.Fatal("the panic barrier kept the BitsegAnd operands of a run it cut short")
	}
}

// TestFaultErrInjection: ErrEvery faults surface as ErrInjected query
// errors at the configured rate.
func TestFaultErrInjection(t *testing.T) {
	e := buildTestEngine(t, Config{
		Shards:    1,
		CacheSize: 0,
		Faults:    &FaultPlan{Shard: -1, ErrEvery: 1},
	}, 1000)
	if _, err := e.Query("m2"); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// TestFaultShardFilter: a fault plan pinned to one shard leaves the others
// untouched.
func TestFaultShardFilter(t *testing.T) {
	e := buildTestEngine(t, Config{
		Shards:    1,
		CacheSize: 0,
		Faults:    &FaultPlan{Shard: 7, ErrEvery: 1}, // shard 7 does not exist
	}, 1000)
	res, err := e.Query("m2")
	if err != nil || len(res.Docs) == 0 {
		t.Fatalf("filtered fault hit the wrong shard: res=%v err=%v", res, err)
	}
}

// TestQueryBatchContextCancelled: an expired context fails every
// non-cache-hit query in the batch with the context error.
func TestQueryBatchContextCancelled(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 0}, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := e.QueryBatchContext(ctx, []string{"m2", "m3 AND m5", "m2 OR m7"})
	for i, br := range out {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("result %d: err = %v, want context.Canceled", i, br.Err)
		}
	}
}

// TestQueryContextAllocs guards the acceptance criterion that context
// plumbing is free on the uncontended fast path: QueryContext with a
// non-cancellable context must allocate exactly what Query does.
func TestQueryContextAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation bounds are not meaningful under -race")
	}
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 0}, 2000)
	const q = "m2 AND m3"
	if _, err := e.Query(q); err != nil { // warm pools
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(50, func() {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	ctx := context.Background()
	withCtx := testing.AllocsPerRun(50, func() {
		if _, err := e.QueryContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if withCtx > base {
		t.Fatalf("QueryContext allocs %.1f > Query allocs %.1f; context plumbing must be free", withCtx, base)
	}
}

// TestChurnCancellationShutdown exercises the whole robustness surface at
// once under the race detector (the CI race step runs every test whose
// name contains "Churn"): concurrent queries with aggressive deadlines,
// live add/delete churn, explicit compactions, injected faults, and batch
// traffic, all against one engine.
func TestChurnCancellationShutdown(t *testing.T) {
	e := buildTestEngine(t, Config{
		Shards:           4,
		CacheSize:        64,
		CompactThreshold: 256,
		Faults:           &FaultPlan{Shard: -1, Delay: 100 * time.Microsecond, ErrEvery: 97},
	}, 2000)
	before := runtime.NumGoroutine()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	queries := []string{"m2 AND m3", "m5 OR m7", "m2 AND NOT m13", "(m3 AND m5) OR m11"}

	// Query workers with rotating tight deadlines.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+i%200)*time.Microsecond)
				_, err := e.QueryContext(ctx, queries[(w+i)%len(queries)])
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) &&
					!errors.Is(err, context.Canceled) && !errors.Is(err, ErrInjected) {
					t.Errorf("query worker %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	// Batch worker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
			e.QueryBatchContext(ctx, queries)
			cancel()
		}
	}()
	// Mutation churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 10_000 + i%512
			if err := e.AddDocument(id, []string{"m2", "churn"}); err != nil {
				t.Errorf("add: %v", err)
				return
			}
			if i%3 == 0 {
				if _, err := e.DeleteDocument(id); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()
	// Compaction.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop) // "shutdown": stop offering work, then verify nothing leaked
	wg.Wait()

	if after := numGoroutineSettled(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
	// A clean final query proves pooled state survived the churn.
	e.cfg.Faults = nil
	res, err := e.Query("m2 AND m3")
	if err != nil || len(res.Docs) == 0 {
		t.Fatalf("post-churn query: res=%v err=%v", res, err)
	}
}
