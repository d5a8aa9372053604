package sets

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkBitProbe runs IntersectBitProbeInto both ways round behind a prefix
// and holds it to the reference, then checks that the window came back all
// zero.
func checkBitProbe(t *testing.T, w *BitProbeWindow, a, b []uint32) {
	t.Helper()
	want := IntersectReference(a, b)
	for _, in := range [2][2][]uint32{{a, b}, {b, a}} {
		got := IntersectBitProbeInto([]uint32{42}, in[0], in[1], w)
		if got[0] != 42 || !Equal(got[1:], want) {
			t.Fatalf("IntersectBitProbeInto(%v, %v) = %v, want %v", in[0], in[1], got[1:], want)
		}
		for i, x := range w {
			if x != 0 {
				t.Fatalf("IntersectBitProbeInto(%v, %v) left window word %d = %#x", in[0], in[1], i, x)
			}
		}
	}
}

// TestIntersectBitProbeInto drives the balanced-pair kernel through random
// shapes on both sides of a window and through the window's edges.
func TestIntersectBitProbeInto(t *testing.T) {
	var w BitProbeWindow
	rng := rand.New(rand.NewSource(11))
	const win = BitProbeWords * 64
	for trial := 0; trial < 200; trial++ {
		universe := uint32(4000)
		if trial%2 == 1 {
			universe = 5 * win // several windows
		}
		a := randomSet(rng, rng.Intn(300), universe)
		b := randomSet(rng, rng.Intn(3000), universe)
		checkBitProbe(t, &w, a, b)
	}
	edge := []uint32{0, 63, 64, win - 1, win, win + 1, 2*win - 1, 3 * win, math.MaxUint32 - win, math.MaxUint32 - 1, math.MaxUint32}
	for _, c := range [][2][]uint32{
		{nil, nil},
		{nil, {1, 2, 3}},
		{{5}, {5}},
		{{5}, {4, 6}},
		{{0}, {0, math.MaxUint32}},
		{{math.MaxUint32}, {0, math.MaxUint32}},
		{{1, 2, 3}, {10, 20, 30}},          // disjoint ranges
		{{10, 20, 30}, {1, 2, 3, 4, 5, 6}}, // disjoint, larger below
		{edge, edge},
		{edge[:6], edge},
		{{win - 1, win}, {win - 1, win, win + 1}},
		// The word just past a window aliases the window's first word
		// modulo BitProbeWords: it must start the next window.
		{{5, win + 7}, {7, win + 5}},
		{{0, win, 2 * win, 3 * win}, {0, 1, win, 2*win + 1, 3 * win}},
	} {
		checkBitProbe(t, &w, c[0], c[1])
	}
}

// FuzzIntersectBitProbe splits the fuzzer's bytes at the first 0xff group
// into two lists of 32-bit values, each sorted and deduplicated, and checks
// IntersectBitProbeInto against the reference and the window against all
// zero after every call. A scale byte rotates every value's bits,
// spreading small inputs across the uint32 range so that they cross window
// edges. The seeds hold empty and single-element lists, disjoint ranges,
// window edges, and docIDs 0 and MaxUint32 on either side.
func FuzzIntersectBitProbe(f *testing.F) {
	f.Add(uint8(0), []byte{0xff})
	f.Add(uint8(0), []byte{1, 0, 0, 0, 2, 0, 0, 0, 0xff, 1, 0, 0, 0})
	f.Add(uint8(0), []byte{1, 0, 0, 0, 2, 0, 0, 0, 0xff, 0, 0, 0, 0x10, 1, 0, 0, 0x10})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(0), []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(18), []byte{1, 0, 0, 0, 3, 0, 0, 0, 0xff, 2, 0, 0, 0, 3, 0, 0, 0})
	f.Add(uint8(6), []byte{5, 0, 0, 0, 0, 0x10, 0, 0, 0xff, 4, 0, 0, 0, 0, 0x10, 0, 0})
	var w BitProbeWindow
	f.Fuzz(func(t *testing.T, scale uint8, data []byte) {
		var lists [2][]uint32
		cur := 0
		for len(data) > 0 {
			if cur == 0 && data[0] == 0xff { // the list separator
				cur, data = 1, data[1:]
				continue
			}
			var b [4]byte
			data = data[copy(b[:], data):]
			v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
			lists[cur] = append(lists[cur], v<<(scale%32)|v>>(32-scale%32))
		}
		checkBitProbe(t, &w, SortDedup(lists[0]), SortDedup(lists[1]))
	})
}

// BenchmarkIntersectBitProbeCrossover times the three raw pair kernels on
// shard-shaped lists: independent draws of shard 0's docIDs over the
// default corpus's 1M span, about 600 in the smaller list and ratio times
// as many in the larger, over 64 distinct pairs so that the lists leave
// the cache as the engine's do. It reports nanoseconds per input element;
// the planner prices BitProbe per input element and Gallop per probe, so
// the crossover the chooser computes from calibrated anchors can be read
// against the ratio where the timings cross.
func BenchmarkIntersectBitProbeCrossover(b *testing.B) {
	const small, pairs = 600, 64
	rng := rand.New(rand.NewSource(1))
	used := NewBitset(benchSpan)
	var w BitProbeWindow
	for _, ratio := range []int{1, 2, 4, 8, 16, 32, 64} {
		as, bs := make([][]uint32, pairs), make([][]uint32, pairs)
		n := 0
		for p := range as {
			as[p] = shardSample(rng, small, used)
			bs[p] = shardSample(rng, small*ratio, used)
			n += len(as[p]) + len(bs[p])
		}
		dst := make([]uint32, 0, small+1)
		for _, k := range []struct {
			name string
			run  func(dst, a, b []uint32) []uint32
		}{
			{"merge", IntersectInto},
			{"gallop", IntersectGallopInto},
			{"bitprobe", func(dst, a, b []uint32) []uint32 { return IntersectBitProbeInto(dst, a, b, &w) }},
		} {
			b.Run(fmt.Sprintf("ratio=%d/%s", ratio, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for p := range as {
						dst = k.run(dst[:0], as[p], bs[p])
					}
				}
				reportPerElem(b, n)
			})
		}
	}
}
