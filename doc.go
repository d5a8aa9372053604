// Package fastintersect computes intersections of preprocessed in-memory
// sets, implementing "Fast Set Intersection in Memory" (Bolin Ding and
// Arnd Christian König, PVLDB 4(4), 2011).
//
// The paper's idea: partition each set into small groups of ≈√w elements
// (w = machine word width), map every group into [w] with a universal hash
// function, and store the image as a single machine word. Intersecting two
// groups then starts with one bitwise-AND; empty group intersections — the
// overwhelming majority when the final intersection is small, as in search
// workloads — are skipped without touching the elements. The paper's
// algorithms and their guarantees:
//
//	IntGroup      O((n1+n2)/√w + r)      fixed-width partitions, 2 sets
//	RanGroup      O(n/√w + k·r)          randomized partitions, k sets
//	RanGroupScan  (Theorem 3.9)          simple variant, fastest in practice
//	HashBin       O(n1·log(n2/n1))       skewed set sizes
//
// Basic usage:
//
//	l1, _ := fastintersect.Preprocess(ids1)
//	l2, _ := fastintersect.Preprocess(ids2)
//	res, _ := fastintersect.Intersect(l1, l2)       // auto-picks an algorithm
//
// Intersect returns results in an algorithm-dependent order; use
// IntersectSorted for ascending document IDs. IntersectWith selects a
// specific algorithm, including the nine baselines the paper evaluates
// against (Merge, Hash, SkipList, SvS, Adaptive, BaezaYates, SmallAdaptive,
// Lookup, BPP), which makes head-to-head comparisons on your own workload a
// one-line change.
//
// All lists preprocessed with the same seed (see WithSeed) share the random
// permutation g and hash functions h1..hm and can be intersected together.
// A List lazily materializes the per-algorithm structures on first use, so
// you pay only for the algorithms you run.
//
// Algorithm names round-trip through ParseAlgorithm and Algorithm.String,
// which is how the CLI tools (cmd/fsi, cmd/fsibench) select algorithms.
//
// High-QPS callers can eliminate per-query allocations entirely: acquire a
// pooled ExecContext with GetExecContext and use IntersectInto (append into
// a caller buffer) or IntersectWithBuf (reuse the context's buffer). With
// warm structures the core kernels run at 0 allocs/op; IntersectWith is a
// thin wrapper that borrows a context per call and returns a fresh slice.
// See ARCHITECTURE.md's "Query execution and memory discipline" for the
// ownership rules.
//
// Above the library sits a query-serving subsystem (internal/engine,
// served by cmd/fsiserve): an inverted index hash-partitioned across
// shards, a cost-based query planner (internal/plan) that lowers a small
// AND/OR/NOT language to physical plans — kernel choice and operand order
// priced by a committed table of coefficients measured against the real
// kernels, inspectable via Engine.Explain / the HTTP explain=1 parameter —
// an LRU result cache keyed by the normalized (canonical) query, batch
// execution (Engine.QueryBatch) that plans once per canonical form and shares
// execution contexts across a batch, and an HTTP JSON API — the
// search-engine setting that motivates the paper, end to end. The corpus
// stays live: each shard is a tier of frozen segments (the one an install
// builds is simply the first) and one active write segment, each with its
// own tombstone set, so documents added or deleted at serving time
// (Engine.AddDocument / DeleteDocument, or POST /index/doc over HTTP) are
// queryable immediately, and background compactions freeze and merge the
// tier. One plan evaluator runs over every segment. See ARCHITECTURE.md's
// mutable-tier section for the design.
//
// The serving tier holds every posting list as a plain exact-size sorted
// []uint32 (internal/segment), intersected by merge, galloping or a
// lazily attached bitmap form, whichever the cost model prices cheapest;
// engine.Stats reports the exact posting footprint. The paper's
// compressed structures (§4.1 and Appendix B) live
// in internal/compress as a library tier — Elias γ/δ gap codes behind a
// bucket directory, density-partitioned bitmaps and the paper's Lowbits
// grouping whose decode is a single bit concatenation, with a per-list
// encoding chooser and intersections directly over the compressed forms —
// measured by fsibench's fig8, real-compressed and fig11 experiments. The
// full algorithm set above stays available through this package. See ARCHITECTURE.md for the
// full map from packages to paper sections.
package fastintersect
