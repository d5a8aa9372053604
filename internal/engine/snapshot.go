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
	"sync"

	"fastintersect/internal/invindex"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// Snapshot persistence: a serialized image of the engine's whole tier, one
// file per shard plus a JSON manifest, for instant restart (fsiserve
// -snapshot-dir) and — down the road — segment shipping between nodes.
//
// Shard file layout (see internal/segment codec.go for the section format):
//
//	u32 magic "FSNP"   u16 version   u8 storage
//	section: base       (terms extracted from the index, tombs = baseTombs)
//	uvarint frozenCount
//	frozenCount × section: frozen segment (terms + its tombstone filter)
//	section: active     (terms, no tombs)
//	u32 CRC-32 (IEEE) of everything above
//
// Posting payloads are varint delta-encoded by the segment codec; on load
// the base is rebuilt through AddPosting + BuildParallel (so the stored
// encodings are re-chosen for the configured storage), while frozen and
// active segments load directly with no preprocessing — that asymmetry is
// the point of serializable segments: only the base pays a build.

const (
	snapMagic    = 0x46534E50 // "FSNP"
	snapVersion  = 1
	manifestName = "MANIFEST.json"
)

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

// SaveSnapshot serializes the engine's current tier — every shard's base,
// base tombstones, frozen segments and active segment — into dir (created if
// missing), one file per shard plus a manifest. Each shard is written under
// its read lock, so the file is an atomic cut of that shard; queries and
// mutations on other shards proceed concurrently. Files are written to a
// temp name and renamed, and the manifest is written last, so a crash
// mid-save never leaves a loadable-looking partial snapshot. Returns
// ErrNotBuilt before the first Install.
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
		if err := saveShard(filepath.Join(dir, shardFile(i)), s, e.cfg.Storage); err != nil {
			return fmt.Errorf("engine: snapshot shard %d: %w", i, err)
		}
	}
	man := snapManifest{
		Version:    snapVersion,
		Shards:     len(shards),
		Storage:    e.cfg.Storage.String(),
		Generation: gen,
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	return nil
}

func shardFile(i int) string { return fmt.Sprintf("shard-%04d.seg", i) }

func saveShard(path string, s *shard, st invindex.Storage) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) //nolint:errcheck // no-op after the rename below
	crc := crc32.NewIEEE()
	w := bufio.NewWriter(io.MultiWriter(f, crc))

	s.mu.RLock()
	err = writeShardLocked(w, s, st)
	s.mu.RUnlock()
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := f.Write(sum[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// writeShardLocked streams one shard's tier, stamped with the engine's
// storage policy. Caller holds s.mu (read).
func writeShardLocked(w *bufio.Writer, s *shard, st invindex.Storage) error {
	var hdr [7]byte
	binary.BigEndian.PutUint32(hdr[0:], snapMagic)
	binary.BigEndian.PutUint16(hdr[4:], snapVersion)
	hdr[6] = byte(st)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	// Base: terms extracted from the index (decoded when compressed), with
	// the base tombstone filter riding in the section's tombs slot.
	basePostings := func(term string) []uint32 { return s.base.Stored(term).Decode() }
	if err := segment.WriteSection(w, s.base.Terms(), basePostings, s.baseTombs); err != nil {
		return fmt.Errorf("base: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(s.frozen)))
	if _, err := w.Write(scratch[:n]); err != nil {
		return err
	}
	for i, fz := range s.frozen {
		if err := fz.WriteFrozen(w); err != nil {
			return fmt.Errorf("frozen %d: %w", i, err)
		}
	}
	if err := s.active.WriteMutable(w); err != nil {
		return fmt.Errorf("active: %w", err)
	}
	return nil
}

// LoadSnapshot restores a snapshot written by SaveSnapshot into the engine,
// replacing any installed index (the same retire-then-swap handshake Install
// uses, so concurrent mutations land in the restored shard set). The
// manifest's shard count and storage must match the engine's configuration —
// a snapshot is an image of a specific partitioning. Bases are rebuilt
// through the parallel build path (encodings re-chosen); frozen and active
// segments load directly with no preprocessing.
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
	if man.Storage != e.cfg.Storage.String() {
		return fmt.Errorf("engine: snapshot storage %q, engine is configured for %q", man.Storage, e.cfg.Storage)
	}
	perShard := e.cfg.Workers / e.cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	shards := make([]*shard, man.Shards)
	errs := make([]error, man.Shards)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i], errs[i] = e.loadShard(filepath.Join(dir, shardFile(i)), perShard)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: snapshot shard %d: %w", i, err)
		}
	}
	e.mu.Lock()
	old := e.shards
	for _, s := range old {
		s.mu.Lock()
		s.retired = true
		s.mu.Unlock()
	}
	e.shards = shards
	e.mu.Unlock()
	e.gen.Add(1)
	e.statsEpoch.Add(1) // restored bases may encode terms differently
	e.met.rebuilds.Inc()
	return nil
}

func (e *Engine) loadShard(path string, workers int) (*shard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
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
	if st := invindex.Storage(payload[6]); st != e.cfg.Storage {
		return nil, fmt.Errorf("shard storage %v, engine configured for %v", st, e.cfg.Storage)
	}
	r := bufio.NewReader(bytes.NewReader(payload[7:]))
	baseTerms, baseTombs, err := segment.ReadSection(r)
	if err != nil {
		return nil, fmt.Errorf("base: %w", err)
	}
	ix := invindex.NewWithStorage(e.cfg.Storage)
	for term, ps := range baseTerms {
		if err := ix.AddPosting(term, ps); err != nil {
			return nil, fmt.Errorf("base term %q: %w", term, err)
		}
	}
	if err := ix.BuildParallel(workers); err != nil {
		return nil, fmt.Errorf("base build: %w", err)
	}
	s := newShard(ix)
	// Keep only tombstones for documents the base actually holds, preserving
	// the baseTombs ⊆ baseDocs invariant liveLocked depends on.
	for _, id := range baseTombs {
		if sets.Contains(s.baseDocs, id) {
			s.baseTombs, _ = sets.InsertSorted(s.baseTombs, id)
		}
	}
	frozenCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("frozen count: %w", err)
	}
	if frozenCount > 1<<16 {
		return nil, fmt.Errorf("implausible frozen segment count %d", frozenCount)
	}
	for i := uint64(0); i < frozenCount; i++ {
		fz, err := segment.ReadFrozen(r)
		if err != nil {
			return nil, fmt.Errorf("frozen %d: %w", i, err)
		}
		s.frozen = append(s.frozen, fz)
	}
	active, err := segment.ReadMutable(r)
	if err != nil {
		return nil, fmt.Errorf("active: %w", err)
	}
	s.active = active
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing bytes after active segment")
	}
	return s, nil
}
