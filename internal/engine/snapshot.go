package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// Snapshot persistence: a serialized image of the engine's whole tier, one
// file per shard plus a JSON manifest, for instant restart (fsiserve
// -snapshot-dir) and — down the road — segment shipping between nodes.
//
// Shard file layout (see internal/segment codec.go for the section format):
//
//	u32 magic "FSNP"   u16 version   u8 storage (0 raw, 1 compressed)
//	section: first frozen segment (terms + its tombstone filter; empty
//	         when the shard has no segment)
//	uvarint n
//	n × section: the other frozen segments, in tier order
//	section: active     (terms, no tombs)
//	u32 CRC-32 (IEEE) of everything above
//
// Every frozen segment goes through the same section path both ways: its
// lists are written as varint delta-encoded docIDs, and on load each
// section is built afresh into exact-size lists by the one list builder
// (segment.ReadFrozen). A loaded shard must keep the one-visible-segment
// invariant — no document visible in two segments — or the load fails.
//
// The storage byte and the manifest's storage name record how the writing
// engine stored its lists. The engine writes raw (0); a file written by an
// engine that still stored compressed lists (1) holds the same postings,
// so it loads too, into raw lists. Any other value is rejected.

const (
	snapMagic    = 0x46534E50 // "FSNP"
	snapVersion  = 1
	manifestName = "MANIFEST.json"
)

// snapStorages are the storage names a v1 snapshot may carry, indexed by
// the shard header's storage byte; the engine writes the first.
var snapStorages = [...]string{"raw", "compressed"}

// snapManifest describes one snapshot directory.
type snapManifest struct {
	Version    int    `json:"version"`
	Shards     int    `json:"shards"`
	Storage    string `json:"storage"`
	Generation uint64 `json:"generation"`
}

// SnapshotExists reports whether dir holds a snapshot manifest.
func SnapshotExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// SaveSnapshot serializes the engine's current tier — every shard's frozen
// segments with their tombstones and its active segment — into dir (created
// if missing), one file per shard plus a manifest. Each shard is written under
// its read lock, so the file is an atomic cut of that shard; queries and
// mutations on other shards proceed concurrently. Each file is written to a
// temp file of its own and renamed (replaceFile), and the manifest is
// written last, so a crash mid-save never leaves a loadable-looking partial
// snapshot, and concurrent saves into one directory do not collide.
// Returns ErrNotBuilt before the first Install.
func (e *Engine) SaveSnapshot(dir string) error {
	shards := e.snapshot()
	if shards == nil {
		return ErrNotBuilt
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	gen := e.gen.Load()
	for i, s := range shards {
		if err := saveShard(filepath.Join(dir, shardFile(i)), s); err != nil {
			return fmt.Errorf("engine: snapshot shard %d: %w", i, err)
		}
	}
	man := snapManifest{
		Version:    snapVersion,
		Shards:     len(shards),
		Storage:    snapStorages[0],
		Generation: gen,
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	if err := replaceFile(filepath.Join(dir, manifestName), func(f io.Writer) error {
		_, err := f.Write(append(data, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	return nil
}

func shardFile(i int) string { return fmt.Sprintf("shard-%04d.seg", i) }

// replaceFile writes path through a temp file that os.CreateTemp names
// uniquely in path's directory, then renames it over path. Two saves into
// one directory therefore never write the same temp file, and each rename
// installs one writer's whole file.
func replaceFile(path string, write func(f io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) //nolint:errcheck // no-op after the rename below
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(0o644); err != nil { // CreateTemp makes it 0600
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

func saveShard(path string, s *shard) error {
	return replaceFile(path, func(f io.Writer) error {
		crc := crc32.NewIEEE()
		w := bufio.NewWriter(io.MultiWriter(f, crc))
		s.mu.RLock()
		err := writeShardLocked(w, s)
		s.mu.RUnlock()
		if err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc.Sum32())
		_, err = f.Write(sum[:])
		return err
	})
}

// writeShardLocked streams one shard's tier; the header's storage byte
// (hdr[6]) stays 0, raw. Caller holds s.mu (read).
func writeShardLocked(w *bufio.Writer, s *shard) error {
	var hdr [7]byte
	binary.BigEndian.PutUint32(hdr[0:], snapMagic)
	binary.BigEndian.PutUint16(hdr[4:], snapVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	segs := s.segs
	if len(segs) == 0 {
		segs = []*segment.Frozen{new(segment.Frozen)} // an empty first section
	}
	for i, fz := range segs {
		if err := fz.WriteFrozen(w); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
		if i == 0 {
			var scratch [binary.MaxVarintLen64]byte
			if _, err := w.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(segs)-1))]); err != nil {
				return err
			}
		}
	}
	if err := s.active.WriteMutable(w); err != nil {
		return fmt.Errorf("active: %w", err)
	}
	return nil
}

// LoadSnapshot restores a snapshot written by SaveSnapshot into the engine,
// replacing any installed index (the swap Install runs, so concurrent
// mutations land in the restored shard set). The
// manifest's shard count must match the engine's configuration — a
// snapshot is an image of a specific partitioning. Every frozen segment is
// built afresh into raw lists by the parallel build Install runs; the
// active segment loads directly.
func (e *Engine) LoadSnapshot(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	var man snapManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("engine: snapshot manifest: %w", err)
	}
	if man.Version != snapVersion {
		return fmt.Errorf("engine: snapshot version %d not supported (want %d)", man.Version, snapVersion)
	}
	if man.Shards != e.cfg.Shards {
		return fmt.Errorf("engine: snapshot has %d shards, engine is configured for %d", man.Shards, e.cfg.Shards)
	}
	if !slices.Contains(snapStorages[:], man.Storage) {
		return fmt.Errorf("engine: snapshot storage %q not supported (want one of %q)", man.Storage, snapStorages)
	}
	shards := make([]*shard, man.Shards)
	errs := make([]error, man.Shards)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := os.ReadFile(filepath.Join(dir, shardFile(i)))
			if err == nil {
				shards[i], err = e.decodeShard(data)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: snapshot shard %d: %w", i, err)
		}
	}
	e.swapShards(shards)
	return nil
}

// decodeShard decodes one shard file: header and checksum, then every
// frozen section through segment.ReadFrozen, then the active section.
func (e *Engine) decodeShard(data []byte) (*shard, error) {
	if len(data) < 11 { // header + CRC
		return nil, fmt.Errorf("truncated file (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("checksum mismatch (file %08x, computed %08x)", sum, got)
	}
	if m := binary.BigEndian.Uint32(payload[0:]); m != snapMagic {
		return nil, fmt.Errorf("bad magic %08x", m)
	}
	if v := binary.BigEndian.Uint16(payload[4:]); v != snapVersion {
		return nil, fmt.Errorf("unsupported shard version %d", v)
	}
	if st := payload[6]; int(st) >= len(snapStorages) {
		return nil, fmt.Errorf("unknown shard storage byte %d", st)
	}
	r := bufio.NewReader(bytes.NewReader(payload[7:]))
	s := &shard{}
	// The first section is followed by the count of the others.
	for i, count := uint64(0), uint64(1); i < count; i++ {
		fz, err := segment.ReadFrozen(r, e.shardWorkers())
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		s.appendSeg(fz)
		if i > 0 {
			continue
		}
		more, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("segment count: %w", err)
		}
		if more > 1<<16 {
			return nil, fmt.Errorf("implausible segment count %d", more)
		}
		count += more
	}
	active, err := segment.ReadMutable(r)
	if err != nil {
		return nil, fmt.Errorf("active: %w", err)
	}
	s.active = active
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing bytes after active segment")
	}
	if err := s.checkDisjoint(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkDisjoint enforces the one-visible-segment invariant on a decoded
// shard: the visible document sets of its segments (each frozen segment's
// docIDs minus its tombstones, and the active segment's documents) must not
// overlap. A file breaking it — CRC-valid, but not written by SaveSnapshot
// — would answer a query for a document's terms in one segment and miss it
// in a conjunction with its terms in another, and count it more than once.
func (s *shard) checkDisjoint() error {
	visible := make([][]uint32, 0, len(s.segs)+1)
	total := 0
	for _, f := range s.segs {
		v := sets.Difference(f.DocIDs(), f.Tombs())
		visible = append(visible, v)
		total += len(v)
	}
	active := s.active.DocIDs()
	visible = append(visible, active)
	total += len(active)
	if n := len(sets.UnionKInto(nil, visible...)); n != total {
		return fmt.Errorf("segments overlap: %d visible documents, %d visible copies", n, total)
	}
	return nil
}
