package invindex

import (
	"fmt"
	"testing"
)

// buildDivisibilityCorpus builds a synthetic corpus where doc d carries term
// "m<k>" iff d%k == 0, so posting densities span a wide range.
func buildDivisibilityCorpus(t *testing.T, numDocs uint32) *Index {
	t.Helper()
	ix := New()
	for d := uint32(0); d < numDocs; d++ {
		terms := []string{"all"}
		for k := uint32(2); k <= 13; k++ {
			if d%k == 0 {
				terms = append(terms, fmt.Sprintf("m%d", k))
			}
		}
		if d%97 == 0 {
			terms = append(terms, "rare")
		}
		if err := ix.Add(d, terms); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.BuildParallel(4); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestMemStats(t *testing.T) {
	rs := buildDivisibilityCorpus(t, 6000).MemStats()
	if rs.Postings == 0 {
		t.Fatal("no postings counted")
	}
	if rs.StoredBytes != rs.RawBytes {
		t.Fatalf("raw storage stored %d B, raw footprint %d B", rs.StoredBytes, rs.RawBytes)
	}
	if _, ok := rs.Encodings["Raw"]; !ok || len(rs.Encodings) != 1 {
		t.Fatalf("raw index encodings = %v", rs.Encodings)
	}
}
