package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fastintersect/internal/plan"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// shardAllocBudget is the most decoding an n-byte shard payload may
// allocate: a fixed allowance for readers, pools and the build's worker
// goroutines, plus a per-byte one. Every posting, tombstone and term costs
// at least one input byte, and a load keeps a few copies of each posting
// and a few hundred bytes of headers and map entries per term, so an
// honest decoder stays far below it whatever the length prefixes claim.
func shardAllocBudget(n int) uint64 { return 256<<10 + 1024*uint64(n) }

// refShard is the reference reading of a shard payload: every section
// decoded with segment.ReadSection, the answer to each single-term query as
// the union over sections of (postings − that section's tombstones), and
// the distinct visible documents.
type refShard struct {
	answers map[string][]uint32
	visible []uint32
}

// decodeRefShard reads payload in the shard layout (first section, uvarint
// count, the other sections, the active section). ok is false when the
// payload does not parse that way.
func decodeRefShard(payload []byte) (ref refShard, ok bool) {
	r := bufio.NewReader(bytes.NewReader(payload))
	ref.answers = map[string][]uint32{}
	var visible [][]uint32
	add := func(terms map[string][]uint32, tombs []uint32) {
		var docs [][]uint32
		for term, ps := range terms {
			live := sets.Difference(ps, tombs)
			ref.answers[term] = sets.Union(ref.answers[term], live)
			docs = append(docs, ps)
		}
		visible = append(visible, sets.Difference(sets.UnionKInto(nil, docs...), tombs))
	}
	for i, count := uint64(0), uint64(1); i < count; i++ {
		terms, tombs, err := segment.ReadSection(r)
		if err != nil {
			return ref, false
		}
		add(terms, tombs)
		if i == 0 {
			more, err := binary.ReadUvarint(r)
			if err != nil || more > 1<<16 {
				return ref, false
			}
			count += more
		}
	}
	terms, tombs, err := segment.ReadSection(r)
	if err != nil || len(tombs) > 0 {
		return ref, false
	}
	add(terms, nil)
	if _, err := r.ReadByte(); err == nil {
		return ref, false
	}
	ref.visible = sets.UnionKInto(nil, visible...)
	return ref, true
}

// FuzzLoadSnapshot feeds arbitrary shard payloads — the bytes after the
// header — to the snapshot loader, framed with a valid header and CRC so
// they reach the decoder, under both valid storage bytes. Every input must
// either fail to load or load into a shard that answers each single-term
// query exactly as the reference reading of its sections does, with
// Stats.Docs equal to the number of distinct visible documents. The loader
// never panics, and it allocates in proportion to its input.
func FuzzLoadSnapshot(f *testing.F) {
	for _, st := range []string{"raw", "compressed"} {
		for i := 0; i < 2; i++ {
			data, err := os.ReadFile(filepath.Join("testdata", "snapshot-v1-"+st, shardFile(i)))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data[7 : len(data)-4])
		}
	}
	f.Add(sectionPayload(f, map[string][]uint32{"a": {1}}, []map[string][]uint32{{"b": {1}}}, map[string][]uint32{"c": {1}}))
	f.Add(sectionPayload(f, nil, nil, map[string][]uint32{"x": {3, 9}}))
	f.Add(sectionPayload(f, map[string][]uint32{"a": {1, 2, 1 << 31}, "": {7}}, []map[string][]uint32{{"a": {5}}}, nil))
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0x80, 0x80, 0x04, 0, 0})
	e := New(Config{Shards: 1, Workers: 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		ref, refOK := decodeRefShard(payload)
		for st := range byte(len(snapStorages)) {
			data := shardFileBytes(st, payload)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := e.decodeShard(data)
			runtime.ReadMemStats(&after)
			if grew, budget := after.TotalAlloc-before.TotalAlloc, shardAllocBudget(len(payload)); grew > budget {
				t.Fatalf("storage byte %d: decoding %d bytes allocated %d bytes (budget %d)", st, len(payload), grew, budget)
			}
			if err != nil {
				continue
			}
			if !refOK {
				t.Fatalf("storage byte %d: loader accepted a payload the reference cannot parse", st)
			}
			e.shards = []*shard{s}
			if got := e.Stats().Docs; got != uint64(len(ref.visible)) {
				t.Fatalf("storage byte %d: Stats.Docs = %d, want %d distinct visible documents", st, got, len(ref.visible))
			}
			var ps planStats
			ps.fill(e.shards)
			for term, want := range ref.answers {
				pp := plan.Build(new(plan.Plan), plan.Term(term), term, &ps, e.costs)
				got, _, err := e.executePlan(context.Background(), e.shards, pp, nil, nil, false)
				if err != nil {
					t.Fatalf("storage byte %d: term %q: %v", st, term, err)
				}
				if !sets.Equal(got, want) {
					t.Fatalf("storage byte %d: term %q = %v, want %v", st, term, head(got), head(want))
				}
			}
		}
	})
}
