package compress

import (
	"testing"
	"testing/quick"
	"unsafe"

	"fastintersect/internal/core"
	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
	"fastintersect/internal/xhash"
)

func storedFam() *core.Family { return core.NewFamily(0x5708ED, StoredHashImages) }

// edgeSets are the shapes most likely to break an encoder: empty,
// singletons at the extremes, dense runs starting at zero, a dense run with
// a far outlier, and adjacent values around word boundaries.
func edgeSets() [][]uint32 {
	denseRun := make([]uint32, 500)
	for i := range denseRun {
		denseRun[i] = uint32(i)
	}
	offsetRun := make([]uint32, 300)
	for i := range offsetRun {
		offsetRun[i] = 1<<30 + uint32(i)
	}
	return [][]uint32{
		nil,
		{0},
		{42},
		{1<<32 - 1},
		{0, 1<<32 - 1},
		{0, 1, 2, 3},
		denseRun,
		append(append([]uint32(nil), denseRun...), 1<<31),
		offsetRun,
	}
}

func TestStoredRoundtripEdges(t *testing.T) {
	fam := storedFam()
	for _, set := range edgeSets() {
		for _, enc := range Encodings() {
			s, err := NewStored(fam, set, enc)
			if err != nil {
				t.Fatalf("%v on %d elems: %v", enc, len(set), err)
			}
			if s.Len() != len(set) {
				t.Fatalf("%v: Len = %d, want %d", enc, s.Len(), len(set))
			}
			if got := s.Decode(); !sets.Equal(got, set) {
				t.Fatalf("%v on %d elems: decode mismatch (got %d elems)", enc, len(set), len(got))
			}
		}
	}
}

func TestStoredRoundtripProperty(t *testing.T) {
	fam := storedFam()
	f := func(raw []uint32) bool {
		set := sets.SortDedup(append([]uint32(nil), raw...))
		for _, enc := range Encodings() {
			s, err := NewStored(fam, set, enc)
			if err != nil {
				return false
			}
			if !sets.Equal(s.Decode(), set) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Stored-intersection parity coverage (every encoding uniformly, mixed
// encodings, the adaptive chooser and every forced strategy — including the
// shape-mismatch downgrade paths — vs the scalar reference) lives in the
// shared cross-kernel harness: internal/kerneltest.TestStoredKernelParity.
// This file keeps only the representation contracts local to the package:
// round-trips, size accounting, the encoding chooser's regimes, and the
// degenerate-input behavior of IntersectStored.

func TestIntersectStoredDegenerate(t *testing.T) {
	fam := storedFam()
	if got := IntersectStored(); got != nil {
		t.Fatalf("no lists: %v", got)
	}
	one, _ := NewStored(fam, []uint32{3, 7, 11}, EncGamma)
	if got := IntersectStored(one); !sets.Equal(got, []uint32{3, 7, 11}) {
		t.Fatalf("single list: %v", got)
	}
	empty, _ := NewStored(fam, nil, EncLowbits)
	if got := IntersectStored(one, empty); len(got) != 0 {
		t.Fatalf("∩ empty: %v", got)
	}
	single, _ := NewStored(fam, []uint32{7}, EncRaw)
	if got := IntersectStored(one, single); !sets.Equal(got, []uint32{7}) {
		t.Fatalf("∩ singleton: %v", got)
	}
}

func TestChooseEncodingRegimes(t *testing.T) {
	rng := xhash.NewRNG(0xD44)
	cases := []struct {
		name     string
		n        int
		universe uint32
		want     Encoding
	}{
		{"tiny", 32, 1 << 16, EncRaw},
		{"small-dense", 2048, 1 << 13, EncBitseg},
		{"small-sparse", 2048, 1 << 26, EncDelta},
		{"mid-dense", 2048, 40 * 1024, EncGamma},
		{"large-dense", 1 << 16, 1 << 18, EncBitseg},
		{"large-mid", 1 << 16, 1 << 26, EncLowbits},
	}
	for _, c := range cases {
		set := workload.RandomSets(c.universe, []int{c.n}, rng)[0]
		if got := ChooseEncoding(set); got != c.want {
			t.Errorf("%s (n=%d, u=%d): chose %v, want %v", c.name, c.n, c.universe, got, c.want)
		}
	}
}

func TestGapCodeBitsMatchesWriter(t *testing.T) {
	rng := xhash.NewRNG(0xE55)
	for _, n := range []int{0, 1, 100, 5000} {
		set := workload.RandomSets(1<<24, []int{n}, rng)[0]
		if n == 0 {
			set = nil
		}
		gamma, delta := GapCodeBits(set)
		var wg, wd BitWriter
		writeGaps(&wg, Gamma, set, 0)
		writeGaps(&wd, Delta, set, 0)
		if gamma != wg.Len() || delta != wd.Len() {
			t.Fatalf("n=%d: GapCodeBits = (%d, %d), writer wrote (%d, %d)",
				n, gamma, delta, wg.Len(), wd.Len())
		}
	}
}

func TestStoredSizeBytes(t *testing.T) {
	fam := storedFam()
	rng := xhash.NewRNG(0xF66)
	set := workload.RandomSets(1<<15, []int{8192}, rng)[0] // dense: gaps ≈ 4
	raw, _ := NewStored(fam, set, EncRaw)
	if raw.SizeBytes() != 4*len(set) {
		t.Fatalf("raw SizeBytes = %d, want %d", raw.SizeBytes(), 4*len(set))
	}
	for _, enc := range []Encoding{EncGamma, EncDelta} {
		s, _ := NewStored(fam, set, enc)
		if s.SizeBytes() >= raw.SizeBytes() {
			t.Fatalf("%v (%d B) not smaller than raw (%d B) on a dense list",
				enc, s.SizeBytes(), raw.SizeBytes())
		}
	}
}

// TestEncodersKeepNoSlack pins SizeBytes as the retained footprint: every
// slice a compressed encoder keeps — bit streams and directories alike —
// has no capacity beyond its length.
func TestEncodersKeepNoSlack(t *testing.T) {
	fam := core.NewFamily(0x5708ED, 4)
	rng := xhash.NewRNG(0x51AC)
	exact := func(what string, n, length, capacity int) {
		t.Helper()
		if capacity != length {
			t.Errorf("%s, %d elements: cap %d, len %d", what, n, capacity, length)
		}
	}
	for _, n := range []int{1, 100, 1000, 100_000} {
		set := workload.RandomSets(1<<24, []int{n}, rng)[0]
		for _, enc := range []Encoding{EncGamma, EncDelta, EncLowbits} {
			s, err := NewStored(fam, set, enc)
			if err != nil {
				t.Fatal(err)
			}
			if s.lookup != nil {
				exact(enc.String()+" stream", n, len(s.lookup.words), cap(s.lookup.words))
				exact(enc.String()+" directory", n, len(s.lookup.dir), cap(s.lookup.dir))
			}
			if s.rgs != nil {
				exact(enc.String()+" stream", n, len(s.rgs.stream), cap(s.rgs.stream))
				exact(enc.String()+" directory", n, len(s.rgs.dir), cap(s.rgs.dir))
			}
		}
		for _, c := range []Coding{Gamma, Delta} {
			m, err := NewMergeList(set, c)
			if err != nil {
				t.Fatal(err)
			}
			exact("MergeList "+c.String(), n, len(m.words), cap(m.words))
		}
		for _, c := range []RGSCoding{RGSGamma, RGSDelta} {
			r, err := NewRGSList(fam, set, 1, c)
			if err != nil {
				t.Fatal(err)
			}
			exact("RGSList "+c.String()+" stream", n, len(r.stream), cap(r.stream))
		}
	}
}

func TestParseEncodingRoundtrip(t *testing.T) {
	for _, enc := range Encodings() {
		got, err := ParseEncoding(enc.String())
		if err != nil || got != enc {
			t.Fatalf("ParseEncoding(%q) = %v, %v", enc.String(), got, err)
		}
	}
	if _, err := ParseEncoding("zstd"); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	if Encoding(99).String() != "Encoding(?)" {
		t.Fatal("unknown stringer wrong")
	}
}

// TestStoredSize pins the posting header inside the 80-byte allocation
// size class: a compressed index holds one Stored per list, so every byte
// past the class boundary multiplies across hundreds of thousands of lists.
func TestStoredSize(t *testing.T) {
	if n := unsafe.Sizeof(Stored{}); n > 80 {
		t.Fatalf("Stored is %d bytes, want ≤ 80", n)
	}
}
