package catalog

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/explain"
	"repro/internal/relation"
	"repro/internal/synth"
)

var testLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mmapCapable reports whether this platform serves arena snapshots
// zero-copy: a real mapping plus host byte order matching the wire.
func mmapCapable() bool {
	return (runtime.GOOS == "linux" || runtime.GOOS == "darwin") && testLittleEndian
}

// TestSnapshotMmapRestore drives the beyond-RAM restore path end to end:
// an arena-form snapshot is written uncompressed,
// LoadSnapshot memory-maps it, and the restored universe reads candidate
// series straight off the mapping — bit-identical to the built one —
// while a snapshot refresh renaming over the file leaves those pinned
// slices untouched.
func TestSnapshotMmapRestore(t *testing.T) {
	oldThreshold := explain.ArenaSnapshotThreshold
	explain.ArenaSnapshotThreshold = 0
	defer func() { explain.ArenaSnapshotThreshold = oldThreshold }()

	hc, err := synth.HighCardinality(synth.HighCardParams{Users: 120, Regions: 10, N: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	name := "bigdata"
	c := stageDataset(t, name, hc.Rel, hc.Rel.DimNames(), 2)
	fp, err := c.DataFingerprint(name)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.LoadRelation(name)
	if err != nil {
		t.Fatal(err)
	}
	u, err := explain.NewUniverse(rel, explain.Config{
		Measure: rel.MeasureNames()[0], Agg: relation.Sum,
		ExplainBy: rel.DimNames(), MaxOrder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !u.ArenaSnapshotRaw() {
		t.Fatal("threshold 0 did not select the arena snapshot layout")
	}
	if err := c.SaveSnapshot(name, rel, u, fp); err != nil {
		t.Fatal(err)
	}
	// Arena snapshots must stay uncompressed — a compressed payload
	// cannot be aliased off a mapping.
	if f := snapshotFlagsOf(t, c, name); f != 0 {
		t.Fatalf("arena snapshot stored with flags %#x, want uncompressed", f)
	}

	rel2, u2, err := c.LoadSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.NumRows() != rel.NumRows() {
		t.Fatalf("restored relation has %d rows, want %d", rel2.NumRows(), rel.NumRows())
	}
	if mmapCapable() {
		if !u2.ArenaMapped() {
			t.Fatal("LoadSnapshot did not alias the arena off the mapping")
		}
		want := int64(u.NumCandidates()) * int64(u.NumTimestamps()) * 16
		if got := u2.MappedBytes(); got != want {
			t.Fatalf("MappedBytes = %d, want %d", got, want)
		}
		if u2.ApproxBytes() >= u.ApproxBytes() {
			t.Fatalf("mapped universe ApproxBytes = %d, want < heap universe's %d", u2.ApproxBytes(), u.ApproxBytes())
		}
	} else if u2.ArenaMapped() {
		t.Fatal("platform without a mapping claims a mapped arena")
	}
	universesBitIdentical(t, u, u2)

	// A background refresh republishes snapshot.bin by rename while u2 is
	// live. The old inode's mapping must keep serving the old bytes.
	if err := c.SaveSnapshot(name, rel, u, fp); err != nil {
		t.Fatal(err)
	}
	universesBitIdentical(t, u, u2)

	// And a fresh load maps the new file.
	_, u3, err := c.LoadSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	universesBitIdentical(t, u, u3)
}

// TestSnapshotMmapFallbackToV2 pins that sub-threshold universes keep
// the compact compressed path and restore heap-resident even through the
// mapping-capable loader.
func TestSnapshotMmapFallbackToV2(t *testing.T) {
	hc, err := synth.HighCardinality(synth.HighCardParams{Users: 40, Regions: 6, N: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	name := "smalldata"
	c := stageDataset(t, name, hc.Rel, hc.Rel.DimNames(), 2)
	fp, err := c.DataFingerprint(name)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.LoadRelation(name)
	if err != nil {
		t.Fatal(err)
	}
	u, err := explain.NewUniverse(rel, explain.Config{
		Measure: rel.MeasureNames()[0], Agg: relation.Sum,
		ExplainBy: rel.DimNames(), MaxOrder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.ArenaSnapshotRaw() {
		t.Fatal("small universe selected the arena layout under the default threshold")
	}
	if err := c.SaveSnapshot(name, rel, u, fp); err != nil {
		t.Fatal(err)
	}
	if f := snapshotFlagsOf(t, c, name); f != snapCompressed {
		t.Fatalf("small snapshot stored with flags %#x, want compressed", f)
	}
	_, u2, err := c.LoadSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	if u2.ArenaMapped() || u2.MappedBytes() != 0 {
		t.Fatal("compressed snapshot restore claims a mapped arena")
	}
	universesBitIdentical(t, u, u2)
}
