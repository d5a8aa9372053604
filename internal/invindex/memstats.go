package invindex

import "fastintersect/internal/compress"

// EncodingStats aggregates the posting lists stored under one encoding.
type EncodingStats struct {
	// Lists is the number of posting lists under this encoding.
	Lists int `json:"lists"`
	// Postings is the total number of postings they hold.
	Postings uint64 `json:"postings"`
	// Bytes is their exact payload footprint (element storage plus
	// directories; struct headers and the lazily attached bitseg form of
	// raw lists are not counted).
	Bytes uint64 `json:"bytes"`
}

// MemStats is the exact posting-payload accounting of a built index.
type MemStats struct {
	// Postings is the total posting count across all terms.
	Postings uint64 `json:"postings"`
	// RawBytes is the uncompressed footprint those postings would occupy
	// (4 bytes each) — the baseline compression is measured against.
	RawBytes uint64 `json:"raw_bytes"`
	// StoredBytes is the footprint actually held.
	StoredBytes uint64 `json:"stored_bytes"`
	// Encodings breaks the footprint down per encoding name.
	Encodings map[string]EncodingStats `json:"encodings"`
}

// MemStats returns the index's posting-payload accounting. Before Build it
// reports zero values.
func (ix *Index) MemStats() MemStats { return MemStatsOf(ix.stored) }

// MemStatsOf returns the posting-payload accounting of a set of stored
// lists (a built index's, or a segment's).
func MemStatsOf(lists map[string]*compress.Stored) MemStats {
	st := MemStats{Encodings: map[string]EncodingStats{}}
	add := func(enc string, postings, bytes uint64) {
		e := st.Encodings[enc]
		e.Lists++
		e.Postings += postings
		e.Bytes += bytes
		st.Encodings[enc] = e
		st.Postings += postings
		st.RawBytes += 4 * postings
		st.StoredBytes += bytes
	}
	for _, s := range lists {
		add(s.Encoding().String(), uint64(s.Len()), uint64(s.SizeBytes()))
	}
	return st
}
