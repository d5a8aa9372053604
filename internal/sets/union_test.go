package sets

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// spanOf returns the smallest and largest element over the non-empty lists.
func spanOf(lists [][]uint32) (lo, hi uint32) {
	lo = math.MaxUint32
	for _, l := range lists {
		if len(l) > 0 {
			lo, hi = min(lo, l[0]), max(hi, l[len(l)-1])
		}
	}
	return lo, hi
}

// unionShape draws k lists for the property test. Every third list is
// empty. Disjoint lists take the residues of their index mod k, the way the
// engine's shards partition docIDs (apart from the two pinned extremes);
// overlapping lists sample one universe independently. A dense universe
// holds an eighth of a word per element, a sparse one far more words than
// any k makes dense. High shapes sit at the top of the uint32 range and
// include MaxUint32; low ones include 0.
func unionShape(rng *rand.Rand, k int, disjoint, dense, high bool) [][]uint32 {
	per := 1 + rng.Intn(3)
	if k <= 64 {
		per = 20 + rng.Intn(100)
	}
	n := uint64(k * per)
	universe := max(n*8, 64)
	if !dense {
		universe = min(n*64*32, math.MaxUint32)
	}
	base := uint64(0)
	if high {
		base = math.MaxUint32 - universe + 1
	}
	lists := make([][]uint32, k)
	for i := range lists {
		if i%3 == 2 {
			continue
		}
		m := map[uint32]bool{}
		for j := 0; j < per; j++ {
			x := uint64(rng.Int63n(int64(universe)))
			if disjoint {
				x -= x % uint64(k)
				x += uint64(i)
				if x >= universe {
					continue
				}
			}
			m[uint32(base+x)] = true
		}
		if i == 0 {
			m[uint32(base)] = true // 0 or the bottom of the high range
		}
		if i == 1 {
			m[uint32(base+universe-1)] = true // MaxUint32 on high shapes
		}
		for x := range m {
			lists[i] = append(lists[i], x)
		}
		lists[i] = SortDedup(lists[i])
	}
	return lists
}

// TestUnionKIntoProperty checks UnionKInto against unionRef on both sides
// of its selection rule: k from 0 to 50 000, disjoint and overlapping
// lists, dense and sparse spans, values at 0 and at MaxUint32, empty lists
// mixed in, and a dst that already holds a prefix, with more or less spare
// capacity.
func TestUnionKIntoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{0, 1, 2, 3, 4, 5, 16, 17, 64, 50_000} {
		for _, disjoint := range []bool{false, true} {
			for _, dense := range []bool{false, true} {
				for _, high := range []bool{false, true} {
					name := fmt.Sprintf("k=%d/disjoint=%v/dense=%v/high=%v", k, disjoint, dense, high)
					lists := unionShape(rng, k, disjoint, dense, high)
					want := unionRef(lists...)
					n, nonEmpty := 0, 0
					for _, l := range lists {
						if len(l) > 0 {
							n += len(l)
							nonEmpty++
						}
					}
					if nonEmpty >= 2 {
						if lo, hi := spanOf(lists); unionDense(n, nonEmpty, lo, hi) != dense {
							t.Fatalf("%s: the shape does not exercise the path it names", name)
						}
					}
					prefix := []uint32{math.MaxUint32, 0, 7}
					// Room for nothing, for the union exactly, for one
					// element short of the inputs, and for all of them.
					for _, room := range []int{0, len(want), max(n-1, 0), n} {
						dst := append(make([]uint32, 0, len(prefix)+room), prefix...)
						got := UnionKInto(dst, lists...)
						if !Equal(got[:len(prefix)], prefix) {
							t.Fatalf("%s room=%d: prefix overwritten: %v", name, room, got[:len(prefix)])
						}
						if !Equal(got[len(prefix):], want) {
							t.Fatalf("%s room=%d: got %d elements, want %d", name, room, len(got)-len(prefix), len(want))
						}
					}
				}
			}
		}
	}
}

// TestUnionKIntoConcurrent runs dense and sparse unions from several
// goroutines at once: the pooled bitmaps and merge buffers must never be
// shared between two calls in flight.
func TestUnionKIntoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var shapes [][][]uint32
	for _, dense := range []bool{false, true} {
		for _, k := range []int{3, 5, 16} {
			shapes = append(shapes, unionShape(rng, k, false, dense, false))
		}
	}
	wants := make([][]uint32, len(shapes))
	for i, lists := range shapes {
		wants[i] = unionRef(lists...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []uint32
			for i := 0; i < 200; i++ {
				s := (g + i) % len(shapes)
				if dst = UnionKInto(dst[:0], shapes[s]...); !Equal(dst, wants[s]) {
					t.Errorf("goroutine %d, shape %d: got %d elements, want %d", g, s, len(dst), len(wants[s]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzUnionKInto splits the fuzzer's bytes into up to 20 lists of 32-bit
// values, each sorted and deduplicated, and checks UnionKInto against the
// reference. A scale byte rotates every value's bits, spreading small inputs
// across the uint32 range, so the inputs fall on both sides of the
// selection rule.
func FuzzUnionKInto(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 0, 0, 2, 0, 0, 0, 0xff, 1, 0, 0, 0})
	f.Add(uint8(20), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xff, 3, 0, 0, 0})
	f.Add(uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, scale uint8, data []byte) {
		var lists [][]uint32
		var cur []uint32
		for len(data) > 0 && len(lists) < 20 {
			if data[0] == 0xff { // list separator
				lists = append(lists, SortDedup(cur))
				cur, data = nil, data[1:]
				continue
			}
			var b [4]byte
			data = data[copy(b[:], data):]
			v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
			cur = append(cur, v<<(scale%32)|v>>(32-scale%32))
		}
		lists = append(lists, SortDedup(cur))
		want := unionRef(lists...)
		got := UnionKInto([]uint32{42}, lists...)
		if got[0] != 42 || !Equal(got[1:], want) {
			t.Fatalf("UnionKInto(%v) = %v, want %v", lists, got[1:], want)
		}
	})
}

// benchSpan is the docID span of the engine's default corpus
// (workload.SmallRealConfig: 1M documents).
const benchSpan = 1 << 20

// shardOf4 is the engine's document-to-shard hash at its default 4 shards.
func shardOf4(d uint32) int {
	return int((uint64(d) * 0x9E3779B97F4A7C15 >> 33) % 4)
}

// shardSample draws n distinct docIDs of shard 0 from [0, benchSpan),
// sorted: a posting list as one shard of the engine holds it.
func shardSample(rng *rand.Rand, n int, used *Bitset) []uint32 {
	used.Reset()
	out := make([]uint32, 0, n)
	for len(out) < n {
		d := uint32(rng.Intn(benchSpan))
		if shardOf4(d) == 0 && !used.Get(d) {
			used.Set(d)
			out = append(out, d)
		}
	}
	SortU32(out)
	return out
}

// benchUnionK times UnionKInto over lists into a reused, exactly-sized
// destination and reports nanoseconds per input element.
func benchUnionK(b *testing.B, lists [][]uint32) {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	dst := make([]uint32, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = UnionKInto(dst[:0], lists...)
	}
	reportPerElem(b, n)
}

// reportPerElem reports the benchmark's time per operation per input
// element.
func reportPerElem(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
}

// BenchmarkUnionK measures UnionKInto, in nanoseconds per input element, on
// the three shapes the engine runs it on:
//
//   - fanin4: the cross-shard result fan-in, n docIDs drawn from a 1M span
//     and split four ways by the engine's shard hash (disjoint lists);
//   - or: a k-way OR inside one shard, overlapping lists with Zipf sizes
//     (the i-th list holds base/(i+1) docs), at a sparse and a dense base;
//   - universe: one shard's docID universe at index build, the union of
//     50 000 Zipf-sized posting lists (df ∝ rank^-0.7, about 4.3M postings
//     in all — the default corpus's shape).
func BenchmarkUnionK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1_000, 25_000, 250_000} {
		lists := make([][]uint32, 4)
		seen := NewBitset(benchSpan)
		for len(lists[0])+len(lists[1])+len(lists[2])+len(lists[3]) < n {
			d := uint32(rng.Intn(benchSpan))
			if !seen.Get(d) {
				seen.Set(d)
				lists[shardOf4(d)] = append(lists[shardOf4(d)], d)
			}
		}
		for _, l := range lists {
			SortU32(l)
		}
		b.Run(fmt.Sprintf("fanin4/n=%d", n), func(b *testing.B) { benchUnionK(b, lists) })
	}
	used := NewBitset(benchSpan)
	for _, base := range []int{2_000, 64_000} {
		for _, k := range []int{2, 4, 10} {
			lists := make([][]uint32, k)
			for i := range lists {
				lists[i] = shardSample(rng, base/(i+1), used)
			}
			b.Run(fmt.Sprintf("or/base=%d/k=%d", base, k), func(b *testing.B) { benchUnionK(b, lists) })
		}
	}
	b.Run("universe/k=50000", func(b *testing.B) {
		lists := make([][]uint32, 50_000)
		for t := range lists {
			lists[t] = shardSample(rng, max(1, int(50_000/math.Pow(float64(t+1), 0.7))), used)
		}
		benchUnionK(b, lists)
	})
}

// BenchmarkUnionKCrossover times both of UnionKInto's paths, forced, on k
// disjoint lists spread over a 1M span at r = W / (N·⌈log₂ k⌉) = ½, 1 and
// 2 — the rule sends r ≤ 1 to the bitmap — reporting nanoseconds per input
// element, so the rule's constant can be checked against the host.
func BenchmarkUnionKCrossover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	used := NewBitset(benchSpan)
	for _, k := range []int{2, 4, 10} {
		depth := bits.Len(uint(k - 1))
		for _, r := range []float64{0.5, 1, 2} {
			n := int(float64(benchSpan/64) / (r * float64(depth)))
			lists := make([][]uint32, k)
			for i := range lists {
				lists[i] = shardSample(rng, n/k, used)
			}
			lo, hi := spanOf(lists)
			n = 0
			for _, l := range lists {
				n += len(l)
			}
			dst := make([]uint32, 0, n)
			b.Run(fmt.Sprintf("k=%d/r=%v/bitmap", k, r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dst = unionBitmap(dst[:0], lists, n, lo>>6, int(hi>>6-lo>>6)+1)
				}
				reportPerElem(b, n)
			})
			b.Run(fmt.Sprintf("k=%d/r=%v/cascade", k, r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dst = unionCascade(dst[:0], lists, n, k)
				}
				reportPerElem(b, n)
			})
		}
	}
}
