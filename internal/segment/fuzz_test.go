package segment

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"

	"fastintersect/internal/sets"
)

// hugeDFSection is an 8-byte section claiming one term "x" with a document
// frequency of 2^28: a length prefix that once reserved 1 GiB before the
// decoder hit EOF.
var hugeDFSection = []byte{0x01, 0x01, 'x', 0x80, 0x80, 0x80, 0x80, 0x01}

// sectionAllocBudget is the most ReadSection may allocate decoding n input
// bytes: the reader's buffer and a capped up-front reservation, plus a
// generous per-byte allowance for map growth, term strings and appended
// lists. Every posting, tombstone and term name costs at least one byte,
// so an honest decoder stays far below it whatever the prefixes claim.
func sectionAllocBudget(n int) uint64 { return 64<<10 + 256*uint64(n) }

// FuzzReadSection feeds arbitrary bytes to the section decoder: it must
// return an error or a section whose lists are all strictly sorted sets,
// never panic, and allocate in proportion to its input, not to the length
// prefixes it reads.
func FuzzReadSection(f *testing.F) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	terms := map[string][]uint32{"a": {1, 5, 9}, "bb": {2}, "c": {0, 1 << 31}}
	if err := WriteSection(w, []string{"a", "bb", "c"}, func(t string) []uint32 { return terms[t] }, []uint32{3, 7}); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0}) // empty section
	f.Add(hugeDFSection)
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x01})       // term count 2^28
	f.Add([]byte{0x01, 0x80, 0x80, 0x40, 'x'})        // 1 MiB term name, 1 byte present
	f.Add([]byte{0x00, 0x80, 0x80, 0x80, 0x80, 0x01}) // 2^28 tombstones
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		terms, tombs, err := ReadSection(bufio.NewReader(bytes.NewReader(data)))
		runtime.ReadMemStats(&after)
		if grew, budget := after.TotalAlloc-before.TotalAlloc, sectionAllocBudget(len(data)); grew > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes (budget %d)", len(data), grew, budget)
		}
		if err != nil {
			return
		}
		for term, ps := range terms {
			if len(ps) == 0 {
				t.Fatalf("term %q decoded with no postings", term)
			}
			if err := sets.Validate(ps); err != nil {
				t.Fatalf("term %q: %v", term, err)
			}
		}
		if err := sets.Validate(tombs); err != nil {
			t.Fatalf("tombstones: %v", err)
		}
	})
}
