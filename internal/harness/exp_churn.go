package harness

import (
	"fmt"
	"slices"
	"time"

	"fastintersect/internal/engine"
	"fastintersect/internal/invindex"
	"fastintersect/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "churn",
		Title: "Live-update serving: query latency vs delta size and compaction cadence",
		Paper: "mutable tier (no paper artifact); the dynamic-corpus motivation of §1",
		Run:   runChurn,
	})
}

// ChurnBucket groups the query latencies observed while the engine's delta
// tier held at most MaxDeltaPostings postings (the last bucket is unbounded).
type ChurnBucket struct {
	MaxDeltaPostings int     `json:"max_delta_postings"` // -1 = unbounded
	Queries          int     `json:"queries"`
	AvgUS            float64 `json:"avg_us"`
	P99US            int64   `json:"p99_us"`
}

// ChurnScenario is one (storage, compaction-threshold) replay of the churn
// stream.
type ChurnScenario struct {
	Name             string        `json:"name"`
	Storage          string        `json:"storage"`
	CompactThreshold int           `json:"compact_threshold"` // 0 = never
	Ops              int           `json:"ops"`
	Adds             int           `json:"adds"`
	Deletes          int           `json:"deletes"`
	Queries          int           `json:"queries"`
	Compactions      uint64        `json:"compactions"`
	FinalDelta       int           `json:"final_delta_postings"`
	FinalTombstones  int           `json:"final_tombstones"`
	QueryP50US       int64         `json:"query_p50_us"`
	QueryP99US       int64         `json:"query_p99_us"`
	MutationP50US    int64         `json:"mutation_p50_us"`
	Buckets          []ChurnBucket `json:"buckets"`
}

// ChurnReport is the machine-readable result of the churn experiment: the
// BENCH_churn.json artifact emitted by fsibench -churn-json, tracking how
// the mutable tier's delta size and compaction cadence shape query latency.
type ChurnReport struct {
	Schema    string          `json:"schema"`
	Scale     string          `json:"scale"`
	Seed      uint64          `json:"seed"`
	Scenarios []ChurnScenario `json:"scenarios"`
}

// churnBucketEdges are the delta-postings sizes latencies are grouped under.
var churnBucketEdges = []int{0, 1_000, 5_000, 20_000}

// ChurnBench replays an interleaved add/delete/query stream through the
// segmented engine once per (storage × compaction threshold) combination.
// Threshold 0 never compacts — the delta grows for the whole stream and the
// latency-vs-delta-size buckets expose the cost of scanning it; the finite
// thresholds show background compaction pulling latency back down at the
// price of merge work.
func ChurnBench(cfg Config) *ChurnReport {
	rc := workload.SmallRealConfig()
	rc.NumDocs, rc.NumTerms, rc.NumQueries = 50_000, 2_000, 256
	ops := 20_000
	thresholds := []int{0, 2_000, 10_000}
	if cfg.Full() {
		rc.NumDocs, rc.NumTerms, rc.NumQueries = 500_000, 20_000, 1_000
		ops = 100_000
		thresholds = []int{0, 10_000, 50_000}
	}
	rc.Seed = cfg.Seed
	real := workload.NewReal(rc)
	ccfg := workload.DefaultChurnConfig()
	ccfg.AddFrac, ccfg.DeleteFrac = 0.25, 0.10
	ccfg.Seed = cfg.Seed + 2
	ccfg.Stream.Seed = cfg.Seed + 3
	stream := real.ChurnStream(ops, ccfg)

	rep := &ChurnReport{Schema: "fsibench/churn/v1", Scale: cfg.Scale, Seed: cfg.Seed}
	for _, st := range []invindex.Storage{invindex.StorageRaw, invindex.StorageCompressed} {
		for _, threshold := range thresholds {
			rep.Scenarios = append(rep.Scenarios, runChurnScenario(real, stream, st, threshold))
		}
	}
	return rep
}

func runChurnScenario(real *workload.Real, stream []workload.ChurnOp, st invindex.Storage, threshold int) ChurnScenario {
	e := engine.New(engine.Config{Shards: 2, Storage: st, CompactThreshold: threshold})
	b := e.NewBuilder()
	for t, docs := range real.Postings {
		if err := b.AddPosting(workload.TermName(t), docs); err != nil {
			panic(fmt.Sprintf("harness: churn build: %v", err))
		}
	}
	if err := e.Install(b); err != nil {
		panic(fmt.Sprintf("harness: churn install: %v", err))
	}

	sc := ChurnScenario{
		Name:             fmt.Sprintf("churn-%s-compact%d", st, threshold),
		Storage:          st.String(),
		CompactThreshold: threshold,
		Ops:              len(stream),
	}
	var queryLat, mutLat []time.Duration
	bucketLat := make([][]time.Duration, len(churnBucketEdges)+1)
	deltaPostings := 0 // sampled engine-wide delta size, refreshed periodically
	for i, op := range stream {
		if i%64 == 0 {
			deltaPostings = e.Stats().Delta.Postings
		}
		switch op.Kind {
		case workload.ChurnAdd:
			start := time.Now()
			if err := e.AddDocument(op.DocID, op.Terms); err != nil {
				panic(fmt.Sprintf("harness: churn add: %v", err))
			}
			mutLat = append(mutLat, time.Since(start))
			sc.Adds++
		case workload.ChurnDelete:
			start := time.Now()
			if _, err := e.DeleteDocument(op.DocID); err != nil {
				panic(fmt.Sprintf("harness: churn delete: %v", err))
			}
			mutLat = append(mutLat, time.Since(start))
			sc.Deletes++
		default:
			start := time.Now()
			if _, err := e.Query(op.Query); err != nil {
				panic(fmt.Sprintf("harness: churn query %q: %v", op.Query, err))
			}
			d := time.Since(start)
			queryLat = append(queryLat, d)
			bi := len(churnBucketEdges)
			for j, edge := range churnBucketEdges {
				if deltaPostings <= edge {
					bi = j
					break
				}
			}
			bucketLat[bi] = append(bucketLat[bi], d)
			sc.Queries++
		}
	}
	// Drain in-flight background compactions: the final counters must be
	// deterministic in the seed, and a straggling merge would burn CPU
	// into the next scenario's latency samples.
	fin := e.Stats()
	for fin.Delta.CompactingShards > 0 {
		time.Sleep(time.Millisecond)
		fin = e.Stats()
	}
	sc.Compactions = fin.Compactions
	sc.FinalDelta = fin.Delta.Postings
	sc.FinalTombstones = fin.Delta.Tombstones
	slices.Sort(queryLat)
	slices.Sort(mutLat)
	sc.QueryP50US = pctUS(queryLat, 50)
	sc.QueryP99US = pctUS(queryLat, 99)
	sc.MutationP50US = pctUS(mutLat, 50)
	for bi, lats := range bucketLat {
		if len(lats) == 0 {
			continue
		}
		slices.Sort(lats)
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		edge := -1
		if bi < len(churnBucketEdges) {
			edge = churnBucketEdges[bi]
		}
		sc.Buckets = append(sc.Buckets, ChurnBucket{
			MaxDeltaPostings: edge,
			Queries:          len(lats),
			AvgUS:            float64(sum.Microseconds()) / float64(len(lats)),
			P99US:            pctUS(lats, 99),
		})
	}
	return sc
}

// pctUS returns the p-th percentile (nearest rank) of sorted durations in
// microseconds.
func pctUS(sorted []time.Duration, p float64) int64 {
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
	return sorted[rank].Microseconds()
}

func runChurn(cfg Config) []*Table {
	rep := ChurnBench(cfg)
	summary := &Table{
		ID:      "churn",
		Title:   "Interleaved add/delete/query replay per storage × compaction threshold",
		Columns: []string{"scenario", "threshold", "adds", "dels", "queries", "compactions", "final-delta", "q-p50-ms", "q-p99-ms", "mut-p50-ms"},
		Notes: []string{
			"threshold 0 never compacts: the delta grows unboundedly and query latency with it",
			"mutations are sub-lock sorted inserts; compaction runs in the background",
		},
	}
	msf := func(us int64) string { return fmt.Sprintf("%.3f", float64(us)/1000) }
	for _, s := range rep.Scenarios {
		summary.AddRow(s.Name, fmt.Sprintf("%d", s.CompactThreshold),
			fmt.Sprintf("%d", s.Adds), fmt.Sprintf("%d", s.Deletes), fmt.Sprintf("%d", s.Queries),
			fmt.Sprintf("%d", s.Compactions), fmt.Sprintf("%d", s.FinalDelta),
			msf(s.QueryP50US), msf(s.QueryP99US), msf(s.MutationP50US))
	}
	buckets := &Table{
		ID:      "churn-delta-latency",
		Title:   "Query latency vs delta size (average per delta-postings bucket)",
		Columns: []string{"scenario", "delta≤", "queries", "avg-ms", "p99-ms"},
	}
	for _, s := range rep.Scenarios {
		for _, b := range s.Buckets {
			edge := "∞"
			if b.MaxDeltaPostings >= 0 {
				edge = fmt.Sprintf("%d", b.MaxDeltaPostings)
			}
			buckets.AddRow(s.Name, edge, fmt.Sprintf("%d", b.Queries),
				fmt.Sprintf("%.3f", b.AvgUS/1000), msf(b.P99US))
		}
	}
	return []*Table{summary, buckets}
}
