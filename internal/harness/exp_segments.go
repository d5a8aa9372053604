package harness

import (
	"fmt"
	"slices"
	"time"

	"fastintersect/internal/engine"
	"fastintersect/internal/invindex"
	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "segments",
		Title: "Tiered segment lifecycle vs full rebuild: write amplification and pauses under churn",
		Paper: "mutable tier (no paper artifact); incremental maintenance of the §1 setting",
		Run:   runSegments,
	})
}

// SegmentsScenario is one (storage × compaction policy) replay of the churn
// stream through the segmented engine. The tiered policy is the engine's
// background compaction (freezes and size-tiered merges); the rebuild
// baseline turns background compaction off and calls Engine.Compact — a
// full merge of every segment — each time the replay has ingested
// threshold postings per shard since its last call.
type SegmentsScenario struct {
	Name    string `json:"name"`
	Storage string `json:"storage"`
	Policy  string `json:"policy"`
	Ops     int    `json:"ops"`
	Adds    int    `json:"adds"`
	Deletes int    `json:"deletes"`
	Queries int    `json:"queries"`
	// IngestedBytes is the posting payload the stream wrote (4 bytes per
	// added term occurrence); CompactionBytes is what compaction re-wrote.
	// Their ratio is the write amplification the policy charges for keeping
	// the index queryable.
	IngestedBytes   uint64  `json:"ingested_bytes"`
	CompactionBytes uint64  `json:"compaction_bytes"`
	WriteAmp        float64 `json:"write_amp"`
	Compactions     uint64  `json:"compactions"`
	Freezes         uint64  `json:"segment_freezes"`
	Merges          uint64  `json:"segment_merges"`
	FinalSegments   int     `json:"final_segments"` // frozen segments left engine-wide
	FinalTombstones int     `json:"final_tombstones"`
	QueryP50US      int64   `json:"query_p50_us"`
	QueryP99US      int64   `json:"query_p99_us"`
	MutationP50US   int64   `json:"mutation_p50_us"`
	// MutationMaxUS is the pause proxy: the worst single mutation, which
	// under the rebuild baseline is an add that ran a full compaction
	// inline and under the tiered policy only ever waits on a freeze or
	// merge swap.
	MutationMaxUS int64 `json:"mutation_max_us"`
}

// SegmentsParity records the cross-policy check: after both replays of one
// storage mode quiesce, every distinct query of the stream must return the
// same documents from the tiered engine and the rebuild engine.
type SegmentsParity struct {
	Storage string `json:"storage"`
	Queries int    `json:"queries"`
	OK      bool   `json:"ok"`
}

// SegmentsReport is the machine-readable result of the segments experiment:
// the BENCH_segments.json artifact emitted by fsibench -segments-json,
// comparing the tiered segment lifecycle against rebuild-on-every-threshold.
type SegmentsReport struct {
	Schema    string             `json:"schema"`
	Scale     string             `json:"scale"`
	Seed      uint64             `json:"seed"`
	Scenarios []SegmentsScenario `json:"scenarios"`
	Parity    []SegmentsParity   `json:"parity"`
}

// SegmentsBench replays one interleaved add/delete/query stream per
// (storage × compaction policy) combination — the SAME stream, so the two
// policies answer for identical work — and measures what each pays to stay
// queryable: bytes re-written by compaction against bytes ingested (write
// amplification), the worst mutation stall, and query latency over the tier
// each policy maintains. A cross-policy parity pass then confirms the tiered
// lifecycle is a pure cost change: every query agrees with the rebuild
// engine's answer.
func SegmentsBench(cfg Config) *SegmentsReport {
	rc := workload.SmallRealConfig()
	rc.NumDocs, rc.NumTerms, rc.NumQueries = 50_000, 2_000, 256
	ops := 20_000
	threshold := 2_000
	if cfg.Full() {
		rc.NumDocs, rc.NumTerms, rc.NumQueries = 500_000, 20_000, 1_000
		ops = 100_000
		threshold = 10_000
	}
	rc.Seed = cfg.Seed
	real := workload.NewReal(rc)
	ccfg := workload.DefaultChurnConfig()
	ccfg.AddFrac, ccfg.DeleteFrac = 0.25, 0.10
	ccfg.Seed = cfg.Seed + 2
	ccfg.Stream.Seed = cfg.Seed + 3
	stream := real.ChurnStream(ops, ccfg)

	rep := &SegmentsReport{Schema: "fsibench/segments/v1", Scale: cfg.Scale, Seed: cfg.Seed}
	for _, st := range []invindex.Storage{invindex.StorageRaw, invindex.StorageCompressed} {
		tieredSc, tiered := runSegmentsScenario(real, stream, st, false, threshold)
		rebuildSc, rebuild := runSegmentsScenario(real, stream, st, true, threshold)
		rep.Scenarios = append(rep.Scenarios, tieredSc, rebuildSc)
		rep.Parity = append(rep.Parity, segmentsParity(st, stream, tiered, rebuild))
	}
	return rep
}

// segmentsShards is the shard count of every segments scenario.
const segmentsShards = 2

func runSegmentsScenario(real *workload.Real, stream []workload.ChurnOp, st invindex.Storage, rebuild bool, threshold int) (SegmentsScenario, *engine.Engine) {
	// MaxSegments 2 keeps the frozen tier tight so the replay exercises
	// size-tiered merges, not just free freezes — the tiered write
	// amplification below is real merge work, not a vacuous zero.
	cfg := engine.Config{Shards: segmentsShards, Storage: st, CompactThreshold: threshold, MaxSegments: 2}
	policy := "tiered"
	if rebuild {
		cfg.CompactThreshold, policy = 0, "rebuild"
	}
	e := engine.New(cfg)
	b := e.NewBuilder()
	for t, docs := range real.Postings {
		if err := b.AddPosting(workload.TermName(t), docs); err != nil {
			panic(fmt.Sprintf("harness: segments build: %v", err))
		}
	}
	if err := e.Install(b); err != nil {
		panic(fmt.Sprintf("harness: segments install: %v", err))
	}

	sc := SegmentsScenario{
		Name:    fmt.Sprintf("segments-%s-%s", st, policy),
		Storage: st.String(),
		Policy:  policy,
		Ops:     len(stream),
	}
	var queryLat, mutLat []time.Duration
	sinceCompact := 0 // postings ingested since the rebuild baseline's last Compact
	for _, op := range stream {
		switch op.Kind {
		case workload.ChurnAdd:
			start := time.Now()
			if err := e.AddDocument(op.DocID, op.Terms); err != nil {
				panic(fmt.Sprintf("harness: segments add: %v", err))
			}
			if sinceCompact += len(op.Terms); rebuild && sinceCompact >= threshold*segmentsShards {
				if err := e.Compact(); err != nil {
					panic(fmt.Sprintf("harness: segments compact: %v", err))
				}
				sinceCompact = 0
			}
			mutLat = append(mutLat, time.Since(start))
			sc.Adds++
			sc.IngestedBytes += 4 * uint64(len(op.Terms))
		case workload.ChurnDelete:
			start := time.Now()
			if _, err := e.DeleteDocument(op.DocID); err != nil {
				panic(fmt.Sprintf("harness: segments delete: %v", err))
			}
			mutLat = append(mutLat, time.Since(start))
			sc.Deletes++
		default:
			start := time.Now()
			if _, err := e.Query(op.Query); err != nil {
				panic(fmt.Sprintf("harness: segments query %q: %v", op.Query, err))
			}
			queryLat = append(queryLat, time.Since(start))
			sc.Queries++
		}
	}
	// Drain in-flight background compactions so the counters are final and a
	// straggler does not burn CPU into the next scenario.
	fin := e.Stats()
	for fin.Delta.CompactingShards > 0 {
		time.Sleep(time.Millisecond)
		fin = e.Stats()
	}
	sc.CompactionBytes = fin.CompactionBytes
	if sc.IngestedBytes > 0 {
		sc.WriteAmp = float64(sc.CompactionBytes) / float64(sc.IngestedBytes)
	}
	sc.Compactions = fin.Compactions
	sc.Freezes = fin.SegmentFreezes
	sc.Merges = fin.SegmentMerges
	sc.FinalSegments = fin.Delta.Segments
	sc.FinalTombstones = fin.Delta.Tombstones
	slices.Sort(queryLat)
	slices.Sort(mutLat)
	sc.QueryP50US = pctUS(queryLat, 50)
	sc.QueryP99US = pctUS(queryLat, 99)
	sc.MutationP50US = pctUS(mutLat, 50)
	if n := len(mutLat); n > 0 {
		sc.MutationMaxUS = mutLat[n-1].Microseconds()
	}
	return sc, e
}

// segmentsParity replays every distinct query of the stream against the
// quiesced tiered and rebuild engines and reports whether all answers match.
func segmentsParity(st invindex.Storage, stream []workload.ChurnOp, tiered, rebuild *engine.Engine) SegmentsParity {
	p := SegmentsParity{Storage: st.String(), OK: true}
	seen := map[string]bool{}
	for _, op := range stream {
		if op.Kind != workload.ChurnQuery || seen[op.Query] {
			continue
		}
		seen[op.Query] = true
		p.Queries++
		a, err := tiered.Query(op.Query)
		if err != nil {
			panic(fmt.Sprintf("harness: segments parity %q: %v", op.Query, err))
		}
		b, err := rebuild.Query(op.Query)
		if err != nil {
			panic(fmt.Sprintf("harness: segments parity %q: %v", op.Query, err))
		}
		if !sets.Equal(a.Docs, b.Docs) {
			p.OK = false
		}
	}
	return p
}

func runSegments(cfg Config) []*Table {
	rep := SegmentsBench(cfg)
	summary := &Table{
		ID:      "segments",
		Title:   "Churn replay per storage × compaction policy (same stream, same work)",
		Columns: []string{"scenario", "write-amp", "compact-MB", "compactions", "freezes", "merges", "final-segs", "q-p50-ms", "q-p99-ms", "mut-max-ms"},
		Notes: []string{
			"write-amp = bytes re-written by compaction / posting bytes ingested by adds",
			"rebuild re-encodes the whole shard at every threshold crossing; tiered freezes (free) and merges only the smallest segments",
			"mut-max is the pause proxy: the worst single mutation stall observed",
		},
	}
	msf := func(us int64) string { return fmt.Sprintf("%.3f", float64(us)/1000) }
	for _, s := range rep.Scenarios {
		summary.AddRow(s.Name, fmt.Sprintf("%.2f", s.WriteAmp),
			fmt.Sprintf("%.1f", float64(s.CompactionBytes)/(1<<20)),
			fmt.Sprintf("%d", s.Compactions), fmt.Sprintf("%d", s.Freezes), fmt.Sprintf("%d", s.Merges),
			fmt.Sprintf("%d", s.FinalSegments),
			msf(s.QueryP50US), msf(s.QueryP99US), msf(s.MutationMaxUS))
	}
	parity := &Table{
		ID:      "segments-parity",
		Title:   "Cross-policy query parity after the replays quiesce",
		Columns: []string{"storage", "queries", "ok"},
	}
	for _, p := range rep.Parity {
		parity.AddRow(p.Storage, fmt.Sprintf("%d", p.Queries), fmt.Sprintf("%v", p.OK))
	}
	return []*Table{summary, parity}
}
