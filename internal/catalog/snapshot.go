package catalog

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"repro/internal/explain"
	"repro/internal/mmapfile"
	"repro/internal/relation"
)

// The snapshot container wraps the relation and universe codec sections
// in one file with an integrity checksum and a staleness fingerprint:
//
//	magic "TSXSNAP" + version byte
//	flags byte: snapCompressed when the payload is flate-compressed
//	u64 size of data.csv when the snapshot was taken
//	u64 mtime (ns) of data.csv when the snapshot was taken
//	u64 stored payload length
//	u64 raw (uncompressed) payload length
//	u64 CRC-64/ECMA of the stored payload
//	payload: relation section (internal/relation) then universe section
//	         (internal/explain)
//
// The CSV fingerprint (size + mtime) makes data changes
// self-invalidating: AppendRows grows data.csv, and even a same-size
// offline edit moves its mtime, so the next LoadSnapshot sees the
// mismatch and falls back to the (authoritative) CSV until the
// background refresher writes a fresh snapshot. The checksum catches
// torn writes and bit rot; the section codecs validate structure. Every
// failure mode maps to an error — the serving layer logs it and
// rebuilds, it never serves a suspect snapshot.

const (
	snapContainerMagic = "TSXSNAP"
	// snapContainerVersion is the one container version. Versions 1 and
	// 2 were earlier headers; their files fail the version check and the
	// dataset rebuilds from its CSV.
	snapContainerVersion = 3
	snapCompressed       = 1
	// snapCompressMaxBytes caps the payloads that are flate-compressed:
	// small datasets are dominated by entropy the varint codec cannot
	// remove (dictionary strings, near-random mantissas), while large ones
	// (where restore latency is the product constraint) stay raw so the
	// warm path never trades decode speed for disk bytes it does not
	// need. Readers reject a compressed payload claiming more.
	snapCompressMaxBytes = 1 << 20
	snapHeaderLen        = len(snapContainerMagic) + 1 + 1 + 5*8
)

// ErrSnapshotStale reports a snapshot whose CSV fingerprint no longer
// matches data.csv — rows were appended (or the file replaced) after the
// snapshot was taken. Callers rebuild from the CSV.
var ErrSnapshotStale = errors.New("catalog: snapshot stale (data.csv changed since it was taken)")

var crcTable = crc64.MakeTable(crc64.ECMA)

// Fingerprint identifies one state of a dataset's data.csv: byte size
// plus modification time. Appends grow the size; offline in-place edits
// (even same-size ones) move the mtime — either way a snapshot built
// from different data stops validating.
type Fingerprint struct {
	Size    int64
	MTimeNS int64
}

// DataFingerprint returns the current fingerprint of the dataset's CSV —
// captured by a snapshot build BEFORE parsing, so a concurrent change
// between the parse and the save is detected.
func (c *Catalog) DataFingerprint(name string) (Fingerprint, error) {
	if _, ok := c.Manifest(name); !ok {
		return Fingerprint{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return c.fingerprint(name)
}

func (c *Catalog) fingerprint(name string) (Fingerprint, error) {
	st, err := os.Stat(filepath.Join(c.path(name), dataFile))
	if err != nil {
		return Fingerprint{}, fmt.Errorf("catalog: fingerprinting data.csv: %w", err)
	}
	return Fingerprint{Size: st.Size(), MTimeNS: st.ModTime().UnixNano()}, nil
}

// checkFresh returns ErrSnapshotStale unless data.csv still matches fp.
func (c *Catalog) checkFresh(name string, fp Fingerprint) error {
	cur, err := c.fingerprint(name)
	if err != nil {
		return err
	}
	if cur != fp {
		return ErrSnapshotStale
	}
	return nil
}

// SaveSnapshot atomically writes the dataset's warm-restart snapshot:
// rel's columns and u's candidate universe, checksummed, staged in a temp
// file and renamed over snapshot.bin. u must be the raw (unsmoothed)
// universe built over rel; fp is the DataFingerprint captured before rel
// was parsed. If data.csv has changed since (a concurrent append), the
// save is aborted with ErrSnapshotStale — the appender triggers its own
// refresh, and recording a fresh fingerprint over stale payload would
// make LoadSnapshot serve pre-append data as current.
func (c *Catalog) SaveSnapshot(name string, rel *relation.Relation, u *explain.Universe, fp Fingerprint) error {
	if _, ok := c.Manifest(name); !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	var sw relation.SnapWriter
	// The encoder aligns a raw candidate arena against the absolute file
	// offset so a memory-mapped container can alias []SumCount in place.
	sw.SetAbsBase(int64(snapHeaderLen))
	rel.EncodeSnapshot(&sw)
	if err := u.EncodeSnapshot(&sw); err != nil {
		return err
	}
	payload := sw.Bytes()
	// A save racing an append is stale. Check before the costly
	// compression, and again under the lock before publishing; the lock is
	// held only for the check and the write, never for encoding or
	// compression, so appends and loads do not queue behind them.
	if err := c.checkFresh(name, fp); err != nil {
		return err
	}

	var flags byte
	stored := payload
	// Arena-form payloads (raw contiguous candidate series) must stay
	// uncompressed: LoadSnapshot memory-maps them and aliases the arena
	// off the mapping, which a compressed payload cannot support. They
	// are normally far above snapCompressMaxBytes anyway; the explicit
	// gate keeps threshold-overridden tests and small arena datasets on
	// the mappable path.
	if len(payload) <= snapCompressMaxBytes && !u.ArenaSnapshotRaw() {
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.BestCompression)
		if err == nil {
			_, werr := fw.Write(payload)
			if werr == nil && fw.Close() == nil && comp.Len() < len(payload) {
				flags = snapCompressed
				stored = comp.Bytes()
			}
		}
	}

	header := make([]byte, 0, snapHeaderLen)
	header = append(header, snapContainerMagic...)
	header = append(header, snapContainerVersion, flags)
	for _, v := range []uint64{
		uint64(fp.Size), uint64(fp.MTimeNS),
		uint64(len(stored)), uint64(len(payload)),
		crc64.Checksum(stored, crcTable),
	} {
		header = binary.LittleEndian.AppendUint64(header, v)
	}

	lock := c.lockFor(name)
	lock.Lock()
	defer lock.Unlock()
	if err := c.checkFresh(name, fp); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.path(name), ".snap-")
	if err != nil {
		return fmt.Errorf("catalog: staging snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(header); err == nil {
		_, err = tmp.Write(stored)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("catalog: writing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("catalog: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.path(name), snapshotFile)); err != nil {
		return fmt.Errorf("catalog: publishing snapshot: %w", err)
	}
	return nil
}

// validateSnapshot checks the container bytes — header, checksum, and
// CSV fingerprint — and returns the codec payload. An uncompressed
// payload sub-slices raw (aliasable reports true): callers decoding from
// a memory mapping may alias sections in place. A compressed payload is
// inflated onto the heap. Callers hold the dataset's lock.
func (c *Catalog) validateSnapshot(name string, raw []byte) (payload []byte, aliasable bool, err error) {
	if len(raw) < snapHeaderLen {
		return nil, false, fmt.Errorf("catalog: snapshot truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(snapContainerMagic)]) != snapContainerMagic {
		return nil, false, fmt.Errorf("catalog: snapshot has bad magic")
	}
	off := len(snapContainerMagic)
	if v := raw[off]; v != snapContainerVersion {
		return nil, false, fmt.Errorf("catalog: snapshot version %d unsupported (want %d)", v, snapContainerVersion)
	}
	flags := raw[off+1]
	if flags&^snapCompressed != 0 {
		return nil, false, fmt.Errorf("catalog: snapshot has unknown flags %#x", flags)
	}
	off += 2
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(raw[off:])
		off += 8
		return v
	}
	csvSize, csvMTime, storedLen, rawLen, sum := u64(), u64(), u64(), u64(), u64()
	if uint64(len(raw)-off) != storedLen {
		return nil, false, fmt.Errorf("catalog: snapshot payload is %d bytes, header says %d", len(raw)-off, storedLen)
	}
	compressed := flags == snapCompressed
	if !compressed && rawLen != storedLen {
		return nil, false, fmt.Errorf("catalog: uncompressed snapshot payload is %d bytes, header says %d raw", storedLen, rawLen)
	}
	if compressed && rawLen > snapCompressMaxBytes {
		return nil, false, fmt.Errorf("catalog: compressed snapshot claims %d raw bytes, above the %d-byte cap", rawLen, snapCompressMaxBytes)
	}
	payload = raw[off:]
	if got := crc64.Checksum(payload, crcTable); got != sum {
		return nil, false, fmt.Errorf("catalog: snapshot checksum mismatch (%x != %x)", got, sum)
	}
	if err := c.checkFresh(name, Fingerprint{Size: int64(csvSize), MTimeNS: int64(csvMTime)}); err != nil {
		return nil, false, err
	}
	if !compressed {
		return payload, true, nil
	}
	fr := flate.NewReader(bytes.NewReader(payload))
	defer fr.Close()
	inflated := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, inflated); err != nil {
		return nil, false, fmt.Errorf("catalog: inflating snapshot payload: %w", err)
	}
	var extra [1]byte
	if n, _ := fr.Read(extra[:]); n != 0 {
		return nil, false, fmt.Errorf("catalog: snapshot payload longer than header says")
	}
	return inflated, false, nil
}

// openSnapshot opens the dataset's snapshot through a read-only memory
// mapping (where the platform supports one) and validates it, returning
// the open file and the codec payload; aliasable reports whether the
// payload is a view of a real mapping. The caller closes f unless it
// pins it to a universe aliasing the mapping. Callers hold the dataset's
// lock.
func (c *Catalog) openSnapshot(name string) (f *mmapfile.File, payload []byte, aliasable bool, err error) {
	f, err = mmapfile.Open(filepath.Join(c.path(name), snapshotFile))
	if err != nil {
		return nil, nil, false, fmt.Errorf("catalog: reading snapshot: %w", err)
	}
	payload, aliasable, err = c.validateSnapshot(name, f.Data())
	if err != nil {
		f.Close()
		return nil, nil, false, err
	}
	return f, payload, aliasable && f.Mapped(), nil
}

// LoadSnapshot reads and fully validates the dataset's snapshot,
// returning the restored relation and raw universe. Any problem — no
// snapshot, bad magic or version, payload checksum mismatch, truncation,
// structural invalidity, or a CSV fingerprint that no longer matches
// data.csv — is an error; the caller falls back to LoadRelation and a
// fresh universe build.
//
// The container is opened through a read-only memory mapping (where the
// platform supports one). When the payload is uncompressed and its
// universe section holds a raw arena, the universe's
// candidate series alias the mapping in place — the kernel pages them on
// demand and may evict them under pressure, so a dataset far larger than
// the Go heap budget still restores and serves. The mapping's owner is
// pinned to the universe (Universe.SetBacking) and unmapped by finalizer
// once the universe is collected; because snapshots publish via rename,
// a background refresh re-bases new loads onto the new inode while live
// universes keep reading the old one — re-basing never invalidates
// pinned slices. Callers observe which path was taken via
// Universe.ArenaMapped.
func (c *Catalog) LoadSnapshot(name string) (*relation.Relation, *explain.Universe, error) {
	if _, ok := c.Manifest(name); !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	lock := c.lockFor(name)
	lock.Lock()
	defer lock.Unlock()
	f, payload, alias, err := c.openSnapshot(name)
	if err != nil {
		return nil, nil, err
	}
	sr := relation.NewSnapReaderBytes(payload)
	rel, err := relation.DecodeSnapshot(sr)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	u, err := explain.DecodeUniverseSnapshot(sr, rel, alias)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if u.ArenaMapped() {
		u.SetBacking(f)
	} else {
		f.Close()
	}
	return rel, u, nil
}

// LoadSnapshotRelation is LoadSnapshot restricted to the relation
// section: the (dominant) universe payload is never decoded. The serving
// layer uses it to materialize a dataset's relation on restart; engine
// builds decode the full snapshot separately. The decoded relation
// copies everything it keeps, so the file is closed before returning.
func (c *Catalog) LoadSnapshotRelation(name string) (*relation.Relation, error) {
	if _, ok := c.Manifest(name); !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	lock := c.lockFor(name)
	lock.Lock()
	defer lock.Unlock()
	f, payload, _, err := c.openSnapshot(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.DecodeSnapshot(relation.NewSnapReaderBytes(payload))
}

// HasSnapshot reports whether a snapshot file exists for the dataset
// (without validating it).
func (c *Catalog) HasSnapshot(name string) bool {
	_, err := os.Stat(filepath.Join(c.path(name), snapshotFile))
	return err == nil
}
