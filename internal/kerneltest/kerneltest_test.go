package kerneltest

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fastintersect"
	"fastintersect/internal/compress"
	"fastintersect/internal/core"
	"fastintersect/internal/engine"
	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

const corpusSeed = 0x517E57

// TestListKernelParity runs every public algorithm — including Auto, whose
// pick rides the calibrated cost model — over the whole corpus against the
// scalar reference. Algorithms with a set-count limit must reject wider
// inputs rather than miscompute.
func TestListKernelParity(t *testing.T) {
	for _, c := range Cases(corpusSeed) {
		want := sets.IntersectReference(c.Sets...)
		lists := make([]*fastintersect.List, len(c.Sets))
		for i, s := range c.Sets {
			l, err := fastintersect.Preprocess(s)
			if err != nil {
				t.Fatalf("%s: set %d: %v", c.Name, i, err)
			}
			lists[i] = l
		}
		for _, algo := range append([]fastintersect.Algorithm{fastintersect.Auto}, fastintersect.Algorithms()...) {
			if mx := algo.MaxSets(); mx > 0 && len(lists) > mx {
				if _, err := fastintersect.IntersectWith(algo, lists...); err == nil {
					t.Errorf("%s/%v: accepted %d sets (limit %d)", c.Name, algo, len(lists), mx)
				}
				continue
			}
			got, err := fastintersect.IntersectWith(algo, lists...)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.Name, algo, err)
			}
			if !algo.Sorted() {
				sets.SortU32(got)
			}
			if !sets.Equal(got, want) {
				t.Errorf("%s/%v: %d results, want %d", c.Name, algo, len(got), len(want))
			}
		}
	}
}

// storedStrategies are every stored-intersection strategy the planner can
// emit; forcing each over every encoding combination also exercises the
// downgrade path (a strategy the shapes cannot satisfy must fall back to
// the filter chain, not miscompute).
var storedStrategies = []plan.Kernel{
	plan.KernelBitsegAnd,
	plan.KernelRGSPair,
	plan.KernelLookupProbe,
	plan.KernelFilterChain,
	plan.KernelDecodeAll,
}

// TestStoredKernelParity covers the compressed tier: every encoding
// uniformly, rotated mixed encodings, the adaptive chooser, and every
// forced strategy over both the adaptive and the uniform-bitseg layouts.
func TestStoredKernelParity(t *testing.T) {
	fam := core.NewFamily(0x517E, compress.StoredHashImages)
	mk := func(name string, set []uint32, enc compress.Encoding) *compress.Stored {
		t.Helper()
		s, err := compress.NewStored(fam, set, enc)
		if err != nil {
			t.Fatalf("%s/%v: %v", name, enc, err)
		}
		return s
	}
	for _, c := range Cases(corpusSeed) {
		want := sets.IntersectReference(c.Sets...)
		encs := compress.Encodings()
		// Uniform: all operands under the same encoding.
		for _, enc := range encs {
			ss := make([]*compress.Stored, len(c.Sets))
			for i, set := range c.Sets {
				ss[i] = mk(c.Name, set, enc)
			}
			if got := compress.IntersectStored(ss...); !sets.Equal(got, want) {
				t.Errorf("%s/uniform-%v: %d results, want %d", c.Name, enc, len(got), len(want))
			}
		}
		// Mixed: rotate encodings across operands.
		for rot := 0; rot < len(encs); rot++ {
			ss := make([]*compress.Stored, len(c.Sets))
			for i, set := range c.Sets {
				ss[i] = mk(c.Name, set, encs[(i+rot)%len(encs)])
			}
			if got := compress.IntersectStored(ss...); !sets.Equal(got, want) {
				t.Errorf("%s/mixed-rot%d: %d results, want %d", c.Name, rot, len(got), len(want))
			}
		}
		// Adaptive layout plus every forced strategy over it; then the
		// uniform bitseg layout under the same forcing (the word-parallel
		// kernel on-path, the others downgrading).
		adaptive := make([]*compress.Stored, len(c.Sets))
		allBitseg := make([]*compress.Stored, len(c.Sets))
		for i, set := range c.Sets {
			s, err := compress.NewStoredAdaptive(fam, set)
			if err != nil {
				t.Fatalf("%s: adaptive: %v", c.Name, err)
			}
			adaptive[i] = s
			allBitseg[i] = mk(c.Name, set, compress.EncBitseg)
		}
		if got := compress.IntersectStored(adaptive...); !sets.Equal(got, want) {
			t.Errorf("%s/adaptive: %d results, want %d", c.Name, len(got), len(want))
		}
		for _, strat := range storedStrategies {
			for layout, ss := range map[string][]*compress.Stored{"adaptive": adaptive, "bitseg": allBitseg} {
				if len(ss) < 2 {
					continue
				}
				if got := compress.IntersectStoredStrategy(nil, strat, ss...); !sets.Equal(got, want) {
					t.Errorf("%s/%s forced %v: %d results, want %d", c.Name, layout, strat, len(got), len(want))
				}
			}
		}
	}
}

// rawStrategies are the kernels the planner runs over raw lists.
var rawStrategies = []plan.Kernel{plan.KernelMerge, plan.KernelGallop, plan.KernelBitsegAnd, plan.KernelBitProbe}

// rawOperands returns each set as a stored EncRaw list.
func rawOperands(t *testing.T, c Case) []*compress.Stored {
	t.Helper()
	var raw []*compress.Stored
	for i, set := range c.Sets {
		s, err := compress.NewStored(nil, set, compress.EncRaw)
		if err != nil {
			t.Fatalf("%s: set %d: %v", c.Name, i, err)
		}
		raw = append(raw, s)
	}
	return raw
}

// TestRawKernelParity forces Merge, Gallop, BitsegAnd and BitProbe over
// EncRaw lists for every corpus case — pairs and k ≥ 3 alike — and holds
// each to the scalar reference.
func TestRawKernelParity(t *testing.T) {
	widths := map[bool]bool{}
	for _, c := range Cases(corpusSeed) {
		want := sets.IntersectReference(c.Sets...)
		raw := rawOperands(t, c)
		widths[len(c.Sets) > 2] = true
		for _, strat := range rawStrategies {
			if got := compress.IntersectStoredStrategy(nil, strat, raw...); !sets.Equal(got, want) {
				t.Errorf("%s forced %v: %d results, want %d", c.Name, strat, len(got), len(want))
			}
		}
	}
	if !widths[false] || !widths[true] {
		t.Fatal("corpus lacks pairs or k ≥ 3 conjunctions")
	}
}

// TestRawBitsegLazyAttach races the first BitsegAnd over fresh EncRaw
// lists from 8 goroutines: every raw list attaches its bitseg form on first
// use, so under -race this exercises the attach itself, and every
// goroutine must still get the reference answer.
func TestRawBitsegLazyAttach(t *testing.T) {
	const goroutines = 8
	for _, c := range Cases(corpusSeed) {
		want := sets.IntersectReference(c.Sets...)
		raw := rawOperands(t, c)
		start := make(chan struct{})
		wrong := make(chan int, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if got := compress.IntersectStoredStrategy(nil, plan.KernelBitsegAnd, raw...); !sets.Equal(got, want) {
					wrong <- len(got)
				}
			}()
		}
		close(start)
		wg.Wait()
		close(wrong)
		for n := range wrong {
			t.Errorf("%s: concurrent first BitsegAnd returned %d results, want %d", c.Name, n, len(want))
		}
	}
}

// TestEngineParity drives the corpus through the full serving path: each
// case's sets become posting lists, the conjunction of all terms is planned
// and executed across two shards, and the merged result must equal the
// reference — under both kernel policies, so the cost-based plans (which
// may pick the bitmap kernels) and the heuristic baseline (which never
// does) are held to the same answers.
func TestEngineParity(t *testing.T) {
	policies := []struct {
		name string
		pol  plan.Policy
	}{
		{"cost", plan.Policy{}},
		{"heuristic", plan.Policy{Order: plan.OrderDF, Kernels: plan.KernelsHeuristic}},
	}
	for _, pc := range policies {
		t.Run("raw-"+pc.name, func(t *testing.T) {
			for _, c := range Cases(corpusSeed) {
				e := engine.New(engine.Config{Shards: 2, PlanPolicy: pc.pol, NoMetrics: true})
				b := e.NewBuilder()
				terms := make([]string, len(c.Sets))
				for i, set := range c.Sets {
					terms[i] = fmt.Sprintf("t%d", i)
					if len(set) == 0 {
						continue
					}
					if err := b.AddPosting(terms[i], set); err != nil {
						t.Fatalf("%s: %v", c.Name, err)
					}
				}
				if err := e.Install(b); err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				res, err := e.Query(strings.Join(terms, " AND "))
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				want := sets.IntersectReference(c.Sets...)
				if !sets.Equal(res.Docs, want) {
					t.Errorf("%s: %d results, want %d", c.Name, len(res.Docs), len(want))
				}
			}
		})
	}
}

// TestCorpusWellFormed pins the generator's contract: stable under a seed,
// sorted duplicate-free sets, and the boundary families present.
func TestCorpusWellFormed(t *testing.T) {
	cases := Cases(corpusSeed)
	if len(cases) < 15 {
		t.Fatalf("corpus has only %d cases", len(cases))
	}
	names := map[string]bool{}
	for _, c := range cases {
		if names[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		names[c.Name] = true
		if len(c.Sets) < 2 {
			t.Errorf("%s: %d sets, want ≥ 2", c.Name, len(c.Sets))
		}
		for i, s := range c.Sets {
			if err := sets.Validate(s); err != nil {
				t.Errorf("%s: set %d: %v", c.Name, i, err)
			}
		}
	}
	for _, want := range []string{"partition-threshold", "near-max", "chunk-edge-straddle", "wide-kway"} {
		if !names[want] {
			t.Errorf("missing boundary family %q", want)
		}
	}
	again := Cases(corpusSeed)
	for i := range cases {
		if cases[i].Name != again[i].Name || len(cases[i].Sets) != len(again[i].Sets) {
			t.Fatalf("corpus not deterministic at case %d", i)
		}
		for j := range cases[i].Sets {
			if !sets.Equal(cases[i].Sets[j], again[i].Sets[j]) {
				t.Fatalf("corpus not deterministic: %s set %d", cases[i].Name, j)
			}
		}
	}
}

// TestEngineParityMultiSegment re-runs the corpus through the serving path
// with the shard tier forced into its general shape: each case's sets are
// inverted into documents, most installed as the base, the rest streamed in
// as three frozen-segment batches, and a slice of documents deleted and
// re-added so every tombstone filter (base and frozen) is non-empty. The
// final visible corpus is byte-identical to the original sets, so the same
// reference intersection must come back (a) from the multi-segment tier,
// (b) after a size-tiered merge, and (c) from a fresh engine restored from a
// snapshot of the tier — the serialize→restart→parity round trip over the
// whole corpus. Runs under -race in CI's multi-segment gate.
func TestEngineParityMultiSegment(t *testing.T) {
	policies := []struct {
		name string
		pol  plan.Policy
	}{
		{"cost", plan.Policy{}},
		{"heuristic", plan.Policy{Order: plan.OrderDF, Kernels: plan.KernelsHeuristic}},
	}
	for _, pc := range policies {
		t.Run("raw-"+pc.name, func(t *testing.T) {
			snapRoot := t.TempDir()
			totalFrozen := 0
			for ci, c := range Cases(corpusSeed) {
				// Invert term → postings into doc → terms.
				docTerms := map[uint32][]string{}
				terms := make([]string, len(c.Sets))
				for i, set := range c.Sets {
					terms[i] = fmt.Sprintf("t%d", i)
					for _, d := range set {
						docTerms[d] = append(docTerms[d], terms[i])
					}
				}
				docs := make([]uint32, 0, len(docTerms))
				for d := range docTerms {
					docs = append(docs, d)
				}
				sets.SortU32(docs)
				// Every 7th document (capped) arrives late, in three
				// frozen batches; the rest are the installed base.
				var late []uint32
				for i := 0; i < len(docs) && len(late) < 600; i += 7 {
					late = append(late, docs[i])
				}
				isLate := map[uint32]bool{}
				for _, d := range late {
					isLate[d] = true
				}
				cfg := engine.Config{Shards: 2, PlanPolicy: pc.pol,
					MaxSegments: 2, NoMetrics: true}
				e := engine.New(cfg)
				b := e.NewBuilder()
				for _, d := range docs {
					if !isLate[d] {
						if err := b.Add(d, docTerms[d]); err != nil {
							t.Fatalf("%s: %v", c.Name, err)
						}
					}
				}
				if err := e.Install(b); err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				for bi := 0; bi < 3; bi++ {
					for j := bi; j < len(late); j += 3 {
						if err := e.AddDocument(late[j], docTerms[late[j]]); err != nil {
							t.Fatalf("%s: %v", c.Name, err)
						}
					}
					if err := e.FreezeActive(); err != nil {
						t.Fatalf("%s: %v", c.Name, err)
					}
				}
				// Delete and re-add every 8th document (capped): base and
				// frozen tombstone filters go non-empty, the re-added copy
				// lands in the active segment, and the visible corpus ends
				// exactly where it started.
				for i, n := 0, 0; i < len(docs) && n < 400; i, n = i+8, n+1 {
					if _, err := e.DeleteDocument(docs[i]); err != nil {
						t.Fatalf("%s: %v", c.Name, err)
					}
					if err := e.AddDocument(docs[i], docTerms[docs[i]]); err != nil {
						t.Fatalf("%s: %v", c.Name, err)
					}
				}
				totalFrozen += e.Stats().Delta.Segments
				want := sets.IntersectReference(c.Sets...)
				check := func(tag string, eng *engine.Engine) {
					t.Helper()
					res, err := eng.Query(strings.Join(terms, " AND "))
					if err != nil {
						t.Fatalf("%s/%s: %v", c.Name, tag, err)
					}
					if !sets.Equal(res.Docs, want) {
						t.Errorf("%s/%s: %d results, want %d", c.Name, tag, len(res.Docs), len(want))
					}
				}
				check("tiered", e)
				if err := e.MergeSegments(); err != nil {
					t.Fatalf("%s: merge: %v", c.Name, err)
				}
				check("merged", e)
				dir := filepath.Join(snapRoot, fmt.Sprintf("c%d", ci))
				if err := e.SaveSnapshot(dir); err != nil {
					t.Fatalf("%s: save: %v", c.Name, err)
				}
				restored := engine.New(cfg)
				if err := restored.LoadSnapshot(dir); err != nil {
					t.Fatalf("%s: load: %v", c.Name, err)
				}
				check("restored", restored)
			}
			if totalFrozen == 0 {
				t.Fatal("no case produced a frozen segment; the tier was never multi-segment")
			}
		})
	}
}
