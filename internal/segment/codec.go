package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"fastintersect/internal/sets"
)

// The segment wire format. One "section" serializes one term map plus one
// tombstone set — the shape shared by a frozen segment (its lists decoded,
// with its tombstone filter) and the active segment (empty tombstones):
//
//	uvarint termCount
//	termCount × { uvarint len(term), term bytes,
//	              uvarint df, df × uvarint docID-delta }
//	uvarint tombCount, tombCount × uvarint docID-delta
//
// Posting lists and tombstone sets are strictly increasing, so they are
// delta-encoded: the first value raw, then gaps (≥ 1). Terms are written in
// sorted order, making the encoding deterministic — byte-identical snapshots
// for identical segments. Framing (magic, version, checksum) is the
// caller's concern: the engine's snapshot files wrap several sections under
// one header and a trailing CRC (see engine/snapshot.go).

// WriteSection serializes one (terms, tombs) pair to w. Terms must map to
// strictly sorted docID lists; tombs must be strictly sorted.
func WriteSection(w *bufio.Writer, termList []string, postings func(term string) []uint32, tombs []uint32) error {
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := w.Write(scratch[:n])
		return err
	}
	writeSet := func(s []uint32) error {
		if err := putUvarint(uint64(len(s))); err != nil {
			return err
		}
		prev := uint32(0)
		for i, v := range s {
			gap := uint64(v)
			if i > 0 {
				gap = uint64(v - prev)
			}
			if err := putUvarint(gap); err != nil {
				return err
			}
			prev = v
		}
		return nil
	}
	if err := putUvarint(uint64(len(termList))); err != nil {
		return err
	}
	for _, t := range termList {
		if err := putUvarint(uint64(len(t))); err != nil {
			return err
		}
		if _, err := w.WriteString(t); err != nil {
			return err
		}
		if err := writeSet(postings(t)); err != nil {
			return err
		}
	}
	return writeSet(tombs)
}

// maxSectionSet bounds a single decoded list's (and the term count's)
// length prefix. It rejects absurd prefixes early; it is not what bounds
// memory — the decoder never sizes an allocation by a prefix alone (see
// ReadSection). Snapshot files are CRC-checked before they are decoded
// (engine/snapshot.go), so these limits only matter for corrupt input that
// somehow carries a valid checksum, and for direct callers.
const maxSectionSet = 1 << 28

// maxPrealloc caps the capacity a length prefix may reserve up front.
// Every posting, tombstone and term takes at least one input byte, so a
// list longer than this grows by append only as its bytes actually arrive:
// allocation stays proportional to the input, whatever the prefix claims.
const maxPrealloc = 1 << 12

// ReadSection decodes one section written by WriteSection, returning the
// term map and tombstone set. Every decoded list is validated as a strictly
// sorted set, and no allocation outgrows what the bytes read so far can
// hold: a corrupt length prefix fails with an error (typically EOF) before
// it costs memory.
func ReadSection(r *bufio.Reader) (map[string][]uint32, []uint32, error) {
	readSet := func() ([]uint32, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if n > maxSectionSet {
			return nil, fmt.Errorf("segment: list length %d exceeds limit", n)
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]uint32, 0, min(n, maxPrealloc))
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			gap, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			v := gap
			if i > 0 {
				v = prev + gap
				if gap == 0 {
					return nil, fmt.Errorf("segment: zero gap (duplicate docID)")
				}
			}
			if v > 1<<32-1 {
				return nil, fmt.Errorf("segment: docID %d overflows uint32", v)
			}
			out = append(out, uint32(v))
			prev = v
		}
		return out, nil
	}
	termCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, nil, err
	}
	if termCount > maxSectionSet {
		return nil, nil, fmt.Errorf("segment: term count %d exceeds limit", termCount)
	}
	// A map entry costs some 50 bytes against a term's three input bytes
	// (name length, df, one gap), so the hint is capped lower still.
	terms := make(map[string][]uint32, min(termCount, maxPrealloc/16))
	nameBuf := make([]byte, 0, 64)
	for i := uint64(0); i < termCount; i++ {
		nameLen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, nil, err
		}
		if nameLen > 1<<20 {
			return nil, nil, fmt.Errorf("segment: term length %d exceeds limit", nameLen)
		}
		// Grow the name buffer only as its bytes arrive (see maxPrealloc).
		nameBuf = nameBuf[:0]
		for rest := nameLen; rest > 0; {
			step := int(min(rest, maxPrealloc))
			nameBuf = slices.Grow(nameBuf, step)
			at := len(nameBuf)
			nameBuf = nameBuf[:at+step]
			if _, err := io.ReadFull(r, nameBuf[at:]); err != nil {
				return nil, nil, err
			}
			rest -= uint64(step)
		}
		ps, err := readSet()
		if err != nil {
			return nil, nil, fmt.Errorf("segment: term %q postings: %w", nameBuf, err)
		}
		if len(ps) == 0 {
			return nil, nil, fmt.Errorf("segment: term %q has no postings", nameBuf)
		}
		terms[string(nameBuf)] = ps
	}
	tombs, err := readSet()
	if err != nil {
		return nil, nil, fmt.Errorf("segment: tombstones: %w", err)
	}
	if err := sets.Validate(tombs); err != nil {
		return nil, nil, fmt.Errorf("segment: tombstones: %w", err)
	}
	return terms, tombs, nil
}

// WriteFrozen serializes f as one section.
func (f *Frozen) WriteFrozen(w *bufio.Writer) error {
	return WriteSection(w, f.Terms(), func(t string) []uint32 { return f.lists[t].docs }, f.tombs)
}

// ReadFrozen decodes one section into a Frozen segment whose lists are
// built by Build (workers goroutines), as an installed shard's are. Tombstones are kept only for documents the segment holds,
// so LiveDocs stays exact. A section with no terms gives a segment with no
// documents.
func ReadFrozen(r *bufio.Reader, workers int) (*Frozen, error) {
	terms, tombs, err := ReadSection(r)
	if err != nil {
		return nil, err
	}
	f := Build(terms, workers)
	for _, id := range tombs {
		f.AddTomb(id)
	}
	return f, nil
}

// WriteMutable serializes the active segment as one section (with an empty
// tombstone set — an active segment has none).
func (m *Mutable) WriteMutable(w *bufio.Writer) error {
	return WriteSection(w, m.Terms(), m.Postings, nil)
}

// ReadMutable decodes one section into a Mutable segment, rebuilding the
// docID → terms reverse map.
func ReadMutable(r *bufio.Reader) (*Mutable, error) {
	terms, tombs, err := ReadSection(r)
	if err != nil {
		return nil, err
	}
	if len(tombs) != 0 {
		return nil, fmt.Errorf("segment: active segment carries tombstones")
	}
	m := NewMutable()
	postings := 0
	for t, ps := range terms {
		if err := sets.Validate(ps); err != nil {
			return nil, fmt.Errorf("segment: term %q: %w", t, err)
		}
		postings += len(ps)
		for _, id := range ps {
			m.docs[id] = append(m.docs[id], t)
		}
	}
	m.terms = terms
	m.postings = postings
	return m, nil
}
