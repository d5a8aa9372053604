package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

var updateSnapshotFixtures = flag.Bool("update-snapshot-fixtures", false,
	"rewrite testdata/snapshot-v1-* (only on a deliberate change of the snapshot format)")

// snapshotFixture is the expected-answer record stored beside each fixture
// snapshot: the live document count and every lifecycleQueries answer,
// computed from the reference model when the fixture was written.
type snapshotFixture struct {
	Docs    uint64              `json:"docs"`
	Answers map[string][]uint32 `json:"answers"`
}

// TestSnapshotFixturesRestore pins snapshot compatibility. The snapshot
// directories under testdata/ were written by an engine whose shards kept a
// separate base index beside their frozen segments (a two-shard tier with
// frozen segments, a non-empty active segment and tombstones): one by an
// engine storing raw lists, one by an engine storing compressed lists.
// Their shard files differ only in the storage byte and the checksum. Both
// must keep restoring to the same answers and document count, and both
// must re-save to exactly the raw fixture's bytes. -update-snapshot-fixtures
// rewrites only the raw fixture; the compressed one is a read-only legacy
// input.
func TestSnapshotFixturesRestore(t *testing.T) {
	rawDir := filepath.Join("testdata", "snapshot-v1-raw")
	cfg := Config{Shards: 2, MaxSegments: 3}
	if *updateSnapshotFixtures {
		writeSnapshotFixture(t, rawDir, cfg)
	}
	for _, name := range []string{"raw", "compressed"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "snapshot-v1-"+name)
			data, err := os.ReadFile(filepath.Join(dir, "expected.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want snapshotFixture
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			e := New(cfg)
			if err := e.LoadSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			if got := e.Stats().Docs; got != want.Docs {
				t.Fatalf("restored Docs = %d, want %d", got, want.Docs)
			}
			for _, tc := range lifecycleQueries {
				res, err := e.Query(tc.q)
				if err != nil {
					t.Fatalf("Query(%q): %v", tc.q, err)
				}
				if !sets.Equal(res.Docs, want.Answers[tc.q]) {
					t.Fatalf("Query(%q) = %d docs %v, want %d docs %v",
						tc.q, len(res.Docs), head(res.Docs), len(want.Answers[tc.q]), head(want.Answers[tc.q]))
				}
			}
			// The restored tier saves back to the raw fixture's bytes: the
			// format is unchanged and the load loses no segment, posting or
			// tombstone.
			resaved := filepath.Join(t.TempDir(), "resaved")
			if err := e.SaveSnapshot(resaved); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cfg.Shards; i++ {
				orig, err := os.ReadFile(filepath.Join(rawDir, shardFile(i)))
				if err != nil {
					t.Fatal(err)
				}
				again, err := os.ReadFile(filepath.Join(resaved, shardFile(i)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(orig, again) {
					t.Fatalf("shard %d re-saved to %d bytes that differ from the raw fixture's %d", i, len(again), len(orig))
				}
			}
		})
	}
}

// writeSnapshotFixture drives a tier through churnToTier, saves it to dir
// and records the reference model's answers beside it.
func writeSnapshotFixture(t *testing.T, dir string, cfg Config) {
	t.Helper()
	e := New(cfg)
	m := newRefModel()
	churnToTier(t, e, m, 4)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	fx := snapshotFixture{Docs: uint64(len(m.docs)), Answers: map[string][]uint32{}}
	for _, tc := range lifecycleQueries {
		fx.Answers[tc.q] = m.match(tc.pred)
	}
	data, err := json.MarshalIndent(fx, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "expected.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// shardFileBytes frames a shard payload (the sections after the header) as
// a complete shard file: header with storage byte st, payload, CRC.
func shardFileBytes(st byte, payload []byte) []byte {
	var hdr [7]byte
	binary.BigEndian.PutUint32(hdr[0:], snapMagic)
	binary.BigEndian.PutUint16(hdr[4:], snapVersion)
	hdr[6] = st
	data := append(hdr[:], payload...)
	return binary.BigEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
}

// sectionPayload concatenates sections written by segment.WriteSection,
// each from a term map and a tombstone set, with a uvarint count of the
// middle ones: the shard payload layout (first, count, others, active).
func sectionPayload(t testing.TB, first map[string][]uint32, others []map[string][]uint32, active map[string][]uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	write := func(terms map[string][]uint32) {
		names := make([]string, 0, len(terms))
		for term := range terms {
			names = append(names, term)
		}
		sort.Strings(names)
		if err := segment.WriteSection(w, names, func(term string) []uint32 { return terms[term] }, nil); err != nil {
			t.Fatal(err)
		}
	}
	write(first)
	var scratch [binary.MaxVarintLen64]byte
	w.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(others)))]) //nolint:errcheck // flushed below
	for _, o := range others {
		write(o)
	}
	write(active)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRejectsOverlappingSegments pins the one-visible-segment
// invariant at load: a CRC-valid shard file in which document 1 is visible
// in the first section (term a), a frozen section (b) and the active
// section (c) once loaded and answered a for [1], c for [1] and a AND c for
// [] while counting three documents. The loader must refuse it.
func TestSnapshotRejectsOverlappingSegments(t *testing.T) {
	dir := t.TempDir()
	payload := sectionPayload(t,
		map[string][]uint32{"a": {1}},
		[]map[string][]uint32{{"b": {1}}},
		map[string][]uint32{"c": {1}})
	if err := os.WriteFile(filepath.Join(dir, shardFile(0)), shardFileBytes(0, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := json.Marshal(snapManifest{Version: snapVersion, Shards: 1, Storage: snapStorages[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: 1})
	if err := e.LoadSnapshot(dir); err == nil {
		st := e.Stats()
		t.Fatalf("LoadSnapshot accepted a document visible in three segments (Docs = %d)", st.Docs)
	}
}
