package invindex

import (
	"fmt"
	"strings"

	"fastintersect/internal/compress"
)

// Storage is the encoding policy of a built index: which compress.Encoding
// each posting list is stored under. It is a space/speed trade-off, not a
// separate code path — every list is a compress.Stored either way.
type Storage int

const (
	// StorageRaw stores every posting list as EncRaw: 32 bits per posting,
	// zero decode cost, the fastest serving policy.
	StorageRaw Storage = iota
	// StorageCompressed stores each posting list under the encoding
	// compress.ChooseEncoding picks from its length and density — raw for
	// short lists, γ/δ gap-coded buckets for dense/sparse lists, bitseg
	// bitmaps for the densest, and the Lowbits-grouped RanGroupScan
	// structure (Appendix B) for the long lists that dominate query time:
	// a smaller heap for slower intersections.
	StorageCompressed
)

// storageNames in declaration order.
var storageNames = [...]string{"raw", "compressed"}

// String names the storage mode.
func (s Storage) String() string {
	if int(s) < len(storageNames) {
		return storageNames[s]
	}
	return "Storage(?)"
}

// ParseStorage parses a storage-mode name, case-insensitively, inverting
// Storage.String.
func ParseStorage(name string) (Storage, error) {
	for i, n := range storageNames {
		if strings.EqualFold(n, name) {
			return Storage(i), nil
		}
	}
	return 0, fmt.Errorf("invindex: unknown storage mode %q (known: %s)",
		name, strings.Join(storageNames[:], ", "))
}

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
