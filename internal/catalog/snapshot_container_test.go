package catalog

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Container header field offsets (see the layout in snapshot.go).
const (
	hdrVersion   = len(snapContainerMagic)
	hdrFlags     = hdrVersion + 1
	hdrCSVSize   = hdrFlags + 1
	hdrStoredLen = hdrCSVSize + 16
	hdrRawLen    = hdrStoredLen + 8
	hdrCRC       = hdrRawLen + 8
)

// savedSnapshot creates the epidemic test dataset, saves its snapshot and
// returns the catalog, the snapshot path and the file's bytes.
func savedSnapshot(t *testing.T) (*Catalog, string, []byte) {
	t.Helper()
	c := openTestCatalog(t)
	m := testManifest()
	rel, err := c.Create(m, strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSnapshot("epidemic", rel, buildUniverse(t, m, rel), mustFingerprint(t, c, "epidemic")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), "epidemic", snapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return c, path, raw
}

// putU64 overwrites one little-endian header field.
func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }

// fixCRC recomputes the payload checksum so a corruption behind it
// reaches the later checks.
func fixCRC(b []byte) {
	putU64(b, hdrCRC, crc64.Checksum(b[snapHeaderLen:], crcTable))
}

// TestSnapshotContainerRejections drives every container check through
// both loaders: each corrupted file must fail with its own error, and
// the intact file must load again afterwards.
func TestSnapshotContainerRejections(t *testing.T) {
	c, path, full := savedSnapshot(t)
	if full[hdrFlags] != snapCompressed {
		t.Fatalf("test snapshot flags = %#x, want compressed", full[hdrFlags])
	}
	rawLen := binary.LittleEndian.Uint64(full[hdrRawLen:])
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"container v1", func(b []byte) []byte { b[hdrVersion] = 1; return b }, "version 1 unsupported"},
		{"container v2", func(b []byte) []byte { b[hdrVersion] = 2; return b }, "version 2 unsupported"},
		{"unknown flags", func(b []byte) []byte { b[hdrFlags] = 0x80; return b }, "unknown flags"},
		{"truncated header", func(b []byte) []byte { return b[:snapHeaderLen-1] }, "truncated"},
		{"stored length mismatch", func(b []byte) []byte { return b[:len(b)-1] }, "header says"},
		{"checksum mismatch", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, "checksum mismatch"},
		{"raw length too short", func(b []byte) []byte { putU64(b, hdrRawLen, rawLen-1); return b }, "longer than header says"},
		{"raw length too long", func(b []byte) []byte { putU64(b, hdrRawLen, rawLen+1); return b }, "inflating snapshot payload"},
		{"raw length above the compression cap", func(b []byte) []byte {
			putU64(b, hdrRawLen, snapCompressMaxBytes+1)
			return b
		}, "cap"},
		{"uncompressed raw length mismatch", func(b []byte) []byte { b[hdrFlags] = 0; return b }, "uncompressed snapshot payload"},
		{"corrupt deflate stream under a correct checksum", func(b []byte) []byte {
			for i := snapHeaderLen; i < len(b); i++ {
				b[i] = 0xFF
			}
			fixCRC(b)
			return b
		}, "inflating snapshot payload"},
		{"stale fingerprint", func(b []byte) []byte {
			putU64(b, hdrCSVSize, binary.LittleEndian.Uint64(b[hdrCSVSize:])+1)
			return b
		}, ErrSnapshotStale.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), full...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.LoadSnapshot("epidemic"); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadSnapshot: err = %v, want %q", err, tc.want)
			}
			if _, err := c.LoadSnapshotRelation("epidemic"); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadSnapshotRelation: err = %v, want %q", err, tc.want)
			}
		})
	}

	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	rel, err := c.LoadSnapshotRelation("epidemic")
	if err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	if rel.NumRows() != 6 || rel.NumTimestamps() != 3 {
		t.Fatalf("restored relation: %d rows, %d timestamps", rel.NumRows(), rel.NumTimestamps())
	}
	if _, err := c.LoadSnapshotRelation("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown dataset: err = %v, want ErrNotFound", err)
	}
}
