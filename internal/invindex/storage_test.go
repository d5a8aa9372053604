package invindex

import (
	"errors"
	"fmt"
	"testing"

	"fastintersect/internal/compress"
	"fastintersect/internal/sets"
)

// buildCorpusPair builds the same synthetic corpus under raw and compressed
// storage: doc d carries term "m<k>" iff d%k == 0, so every query result is
// derivable from first principles and posting densities span the encoding
// heuristic's regimes.
func buildCorpusPair(t *testing.T, numDocs uint32) (raw, comp *Index) {
	t.Helper()
	raw = New()
	comp = NewWithStorage(StorageCompressed)
	for _, ix := range []*Index{raw, comp} {
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
	}
	return raw, comp
}

func TestCompressedQueryParity(t *testing.T) {
	const numDocs = 6000
	raw, comp := buildCorpusPair(t, numDocs)
	queries := [][]string{
		{"all"},
		{"rare"},
		{"m2"},
		{"m2", "m3"},
		{"m2", "m3", "m5", "m7"},
		{"rare", "m13"},
		{"all", "m11"},
	}
	for _, q := range queries {
		want, err := raw.Query(q...)
		if err != nil {
			t.Fatalf("raw %v: %v", q, err)
		}
		got, err := comp.Query(q...)
		if err != nil {
			t.Fatalf("compressed %v: %v", q, err)
		}
		if !sets.Equal(got, want) {
			t.Fatalf("query %v: compressed %d docs, raw %d docs", q, len(got), len(want))
		}
	}
}

func TestCompressedIndexAccessors(t *testing.T) {
	raw, comp := buildCorpusPair(t, 3000)
	if got, want := comp.TermCount(), raw.TermCount(); got != want {
		t.Fatalf("TermCount = %d, want %d", got, want)
	}
	ct, rt := comp.Terms(), raw.Terms()
	if len(ct) != len(rt) {
		t.Fatalf("Terms mismatch: %v vs %v", ct, rt)
	}
	for i := range ct {
		if ct[i] != rt[i] {
			t.Fatalf("Terms mismatch at %d: %q vs %q", i, ct[i], rt[i])
		}
	}
	for _, term := range []string{"all", "m2", "m13", "rare", "nosuch"} {
		if got, want := comp.DocFreq(term), raw.DocFreq(term); got != want {
			t.Fatalf("DocFreq(%q) = %d, want %d", term, got, want)
		}
	}
	// Both policies hand out stored lists; raw stores every one as EncRaw.
	if s := raw.Stored("m2"); s == nil || s.Encoding() != compress.EncRaw {
		t.Fatal("raw index did not store m2 as EncRaw")
	}
	if comp.Stored("m2") == nil {
		t.Fatal("compressed index has no stored representation for m2")
	}
	if _, err := comp.Query("nosuch"); !errors.Is(err, ErrUnknownTerm) {
		t.Fatalf("unknown term error = %v", err)
	}
}

func TestMemStats(t *testing.T) {
	raw, comp := buildCorpusPair(t, 6000)
	rs, cs := raw.MemStats(), comp.MemStats()
	if rs.Postings == 0 || rs.Postings != cs.Postings {
		t.Fatalf("postings: raw %d, compressed %d", rs.Postings, cs.Postings)
	}
	if rs.StoredBytes != rs.RawBytes {
		t.Fatalf("raw storage stored %d B, raw footprint %d B", rs.StoredBytes, rs.RawBytes)
	}
	// The divisibility corpus is dense (gaps ≤ 13), so compression must
	// shrink it substantially.
	if cs.StoredBytes >= cs.RawBytes/2 {
		t.Fatalf("compressed storage %d B not well under half of raw %d B", cs.StoredBytes, cs.RawBytes)
	}
	if len(cs.Encodings) < 2 {
		t.Fatalf("expected multiple encodings in use, got %v", cs.Encodings)
	}
	var sum uint64
	for _, es := range cs.Encodings {
		sum += es.Bytes
	}
	if sum != cs.StoredBytes {
		t.Fatalf("per-encoding bytes sum %d != total %d", sum, cs.StoredBytes)
	}
	if _, ok := rs.Encodings["Raw"]; !ok || len(rs.Encodings) != 1 {
		t.Fatalf("raw index encodings = %v", rs.Encodings)
	}
}

func TestParseStorageRoundtrip(t *testing.T) {
	for _, st := range []Storage{StorageRaw, StorageCompressed} {
		got, err := ParseStorage(st.String())
		if err != nil || got != st {
			t.Fatalf("ParseStorage(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := ParseStorage("mmap"); err == nil {
		t.Fatal("unknown storage mode accepted")
	}
	if Storage(9).String() != "Storage(?)" {
		t.Fatal("unknown stringer wrong")
	}
}
