// Websearch: conjunctive keyword queries over an inverted index — the
// paper's motivating application. A synthetic corpus of documents is
// indexed by the query engine; multi-keyword queries are answered by
// intersecting posting lists with the kernel the cost model picks for
// their sizes (a bitmap probe for balanced lists, galloping once they are
// skewed). The paper's full algorithm set stays available through
// the public fastintersect API, shown at the end.
//
//	go run ./examples/websearch
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"fastintersect"
	"fastintersect/internal/engine"
	"fastintersect/internal/xhash"
)

// vocabulary with Zipf-ish popularity: earlier words appear in more docs.
var vocabulary = []string{
	"data", "system", "query", "index", "search", "memory", "fast",
	"intersection", "set", "algorithm", "cache", "latency", "ranking",
	"shard", "compression", "posting", "hash", "partition", "group", "scan",
}

func main() {
	const numDocs = 120_000
	rng := xhash.NewRNG(7)
	e := engine.New(engine.Config{})
	b := e.NewBuilder()
	for doc := uint32(0); doc < numDocs; doc++ {
		var terms []string
		for rank, w := range vocabulary {
			// P(word in doc) ∝ 1/(rank+2): frequent head, long tail.
			if rng.Intn(rank+2) == 0 {
				terms = append(terms, w)
			}
		}
		if err := b.Add(doc, terms); err != nil {
			log.Fatal(err)
		}
	}
	if err := e.Install(b); err != nil {
		log.Fatal(err)
	}
	query := func(q string) []uint32 {
		res, err := e.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		return res.Docs
	}

	fmt.Println("document frequencies:")
	for _, w := range []string{"data", "search", "intersection", "scan"} {
		fmt.Printf("  %-14s %6d docs\n", w, len(query(w)))
	}
	fmt.Println()

	queries := [][]string{
		{"data", "system"},
		{"fast", "set", "intersection"},
		{"search", "latency", "ranking"},
		{"scan", "data"}, // rare ∧ frequent: skewed sizes favor galloping
	}
	for _, q := range queries {
		and := strings.Join(q, " AND ")
		query(and) // warm: the first run plans the query and memoizes the plan
		start := time.Now()
		hits := query(and)
		fmt.Printf("query %-35s %6d hits in %v\n", fmt.Sprintf("%v", q), len(hits), time.Since(start).Round(time.Microsecond))
	}

	// Any of the paper's algorithms can be forced through the public API,
	// e.g. for benchmarking: preprocess the posting lists, then pick one.
	var lists []*fastintersect.List
	for _, w := range []string{"fast", "set", "intersection"} {
		l, err := fastintersect.Preprocess(query(w))
		if err != nil {
			log.Fatal(err)
		}
		lists = append(lists, l)
	}
	hits, err := fastintersect.IntersectWith(fastintersect.Merge, lists...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame query via Merge baseline: %d hits\n", len(hits))
}
