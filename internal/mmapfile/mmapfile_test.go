package mmapfile

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestOpenReadsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	want := bytes.Repeat([]byte("tsexplain"), 1000)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !bytes.Equal(f.Data(), want) {
		t.Fatalf("Data() = %d bytes, want %d matching bytes", len(f.Data()), len(want))
	}
	if (runtime.GOOS == "linux" || runtime.GOOS == "darwin") && !f.Mapped() {
		t.Fatalf("Open on %s did not memory-map", runtime.GOOS)
	}
}

func TestOpenEmptyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(f.Data()) != 0 {
		t.Fatalf("empty file: Data()=%d bytes, want 0", len(f.Data()))
	}
	if f.Mapped() {
		t.Fatal("empty file must not claim a mapping (mmap of length 0 is invalid)")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
}

func TestCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	if err := os.WriteFile(path, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if f.Data() != nil {
		t.Fatal("Data() non-nil after Close")
	}
}

// TestRenameKeepsOldMapping pins the re-base contract: a snapshot
// published by rename(2) over a mapped file must not disturb the open
// mapping — readers of the old inode keep seeing the old bytes.
func TestRenameKeepsOldMapping(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xAA}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	next := filepath.Join(dir, "snap-next")
	if err := os.WriteFile(next, bytes.Repeat([]byte{0xBB}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Data() {
		if b != 0xAA {
			t.Fatalf("byte %d changed to %#x after rename over the mapped file", i, b)
		}
	}
	f2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Data()[0] != 0xBB {
		t.Fatal("fresh Open after rename did not see the new bytes")
	}
}
