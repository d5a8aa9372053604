// Websearch: conjunctive keyword queries over an inverted index — the
// paper's motivating application. A synthetic corpus of documents is
// indexed; multi-keyword queries are answered by intersecting posting
// lists with the kernel the calibrated cost model picks for their sizes
// (a linear merge for balanced lists, galloping once they are skewed).
// The paper's full algorithm set stays available through the public
// fastintersect API, shown at the end.
//
//	go run ./examples/websearch
package main

import (
	"fmt"
	"log"
	"time"

	"fastintersect"
	"fastintersect/internal/invindex"
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
	ix := invindex.New()
	for doc := uint32(0); doc < numDocs; doc++ {
		var terms []string
		for rank, w := range vocabulary {
			// P(word in doc) ∝ 1/(rank+2): frequent head, long tail.
			if rng.Intn(rank+2) == 0 {
				terms = append(terms, w)
			}
		}
		if err := ix.Add(doc, terms); err != nil {
			log.Fatal(err)
		}
	}
	if err := ix.Build(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("document frequencies:")
	for _, w := range []string{"data", "search", "intersection", "scan"} {
		fmt.Printf("  %-14s %6d docs\n", w, ix.DocFreq(w))
	}
	fmt.Println()

	queries := [][]string{
		{"data", "system"},
		{"fast", "set", "intersection"},
		{"search", "latency", "ranking"},
		{"scan", "data"}, // rare ∧ frequent: skewed sizes favor galloping
	}
	for _, q := range queries {
		if _, err := ix.Query(q...); err != nil { // warm: calibrates the cost model
			log.Fatal(err)
		}
		start := time.Now()
		hits, err := ix.Query(q...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %-35s %6d hits in %v\n", fmt.Sprintf("%v", q), len(hits), time.Since(start).Round(time.Microsecond))
	}

	// Any of the paper's algorithms can be forced through the public API,
	// e.g. for benchmarking: preprocess the posting lists, then pick one.
	var lists []*fastintersect.List
	for _, w := range []string{"fast", "set", "intersection"} {
		l, err := fastintersect.Preprocess(ix.Stored(w).Decode())
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
