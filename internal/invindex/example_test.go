package invindex_test

import (
	"fmt"

	"fastintersect/internal/invindex"
)

// ExampleNew builds a tiny inverted index and runs a conjunctive query:
// the documented entry point of the serving substrate.
func ExampleNew() {
	ix := invindex.New()
	_ = ix.Add(1, []string{"fast", "set"})
	_ = ix.Add(2, []string{"fast", "intersection"})
	_ = ix.Add(3, []string{"set", "intersection", "fast"})
	if err := ix.Build(); err != nil {
		panic(err)
	}
	docs, _ := ix.Query("fast", "intersection")
	fmt.Println(docs)
	// Output: [2 3]
}
