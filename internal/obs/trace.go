package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of query execution for per-stage timing.
// The stages mirror the engine's execute pipeline in order.
type Stage uint8

const (
	StageParse     Stage = iota // query text → AST
	StageNormalize              // AST flatten/sort/dedup → canonical form
	StagePlan                   // physical plan build (cost model)
	StageCache                  // result-cache probe
	StageExec                   // every shard's evaluation, in turn
	StageMerge                  // k-way union of shard results
	NumStages
)

var stageNames = [NumStages]string{"parse", "normalize", "plan", "cache", "exec", "merge"}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// ShardSpan records one shard's contribution to a traced query.
type ShardSpan struct {
	Shard int
	Rows  int
	Ns    int64
}

// Trace is a per-query record of stage timings and per-shard spans. Traces
// are pooled (GetTrace/PutTrace) and carried through the engine's pooled
// execution contexts, so a sampled query costs no steady-state allocations.
type Trace struct {
	Stages [NumStages]int64 // ns per stage; 0 = not reached
	Shards []ShardSpan
}

var tracePool = sync.Pool{New: func() any { return &Trace{} }}

// GetTrace returns a reset Trace from the pool.
func GetTrace() *Trace {
	t := tracePool.Get().(*Trace)
	t.Stages = [NumStages]int64{}
	t.Shards = t.Shards[:0]
	return t
}

// PutTrace returns t to the pool. Nil-safe.
func PutTrace(t *Trace) {
	if t != nil {
		tracePool.Put(t)
	}
}

// Sampler admits every Nth event. every <= 1 admits everything. The
// counter is a single shared atomic — one uncontended-in-practice Add per
// query is far cheaper than the trace it gates, and exact spacing is not
// required, only the 1/N rate.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler returns a sampler admitting one in every `every` calls.
func NewSampler(every int) *Sampler {
	if every < 1 {
		every = 1
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether this event is admitted.
func (s *Sampler) Sample() bool {
	if s.every == 1 {
		return true
	}
	return s.n.Add(1)%s.every == 0
}

// SlowEntry is one slow-query record.
type SlowEntry struct {
	Time       time.Time `json:"time"`
	Query      string    `json:"query"`
	Normalized string    `json:"normalized,omitempty"`
	DurationUS int64     `json:"duration_us"`
	Rows       int       `json:"rows"`
	Cached     bool      `json:"cached"`
	Error      string    `json:"error,omitempty"`
	// Reason classifies admission/overload outcomes ("rejected_quota",
	// "shed_queue_full", "deadline", ...). A non-empty Reason makes the
	// entry threshold-exempt: a request shed in microseconds is exactly the
	// diagnostic signal the slowlog exists to surface under overload.
	Reason string `json:"reason,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of queries slower than a
// threshold. Record is called once per request on the serving path, so it
// takes a plain mutex — the threshold gate means the lock is touched only
// by already-slow queries' bookkeeping, never the fast path's critical
// section. A nil SlowLog ignores records, so callers need no gating.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	entries   []SlowEntry
	next      int
	total     uint64
	wrapped   bool
}

// NewSlowLog returns a ring holding the most recent capacity entries with
// duration ≥ threshold.
func NewSlowLog(threshold time.Duration, capacity int) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{threshold: threshold, entries: make([]SlowEntry, 0, capacity)}
}

// Threshold returns the slow-query cutoff.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Record adds e if it is at or over the threshold; entries with a Reason
// bypass the threshold (see SlowEntry.Reason). Nil-safe.
func (l *SlowLog) Record(e SlowEntry) {
	if l == nil {
		return
	}
	if e.Reason == "" && time.Duration(e.DurationUS)*time.Microsecond < l.threshold {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.entries) < cap(l.entries) {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % cap(l.entries)
	l.wrapped = true
}

// Snapshot returns the retained entries, newest first. Nil-safe.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.entries))
	if l.wrapped {
		for i := 0; i < cap(l.entries); i++ {
			out = append(out, l.entries[(l.next-1-i+2*cap(l.entries))%cap(l.entries)])
		}
		return out
	}
	for i := len(l.entries) - 1; i >= 0; i-- {
		out = append(out, l.entries[i])
	}
	return out
}

// Total returns how many entries have ever been recorded (including ones
// evicted from the ring). Nil-safe.
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
