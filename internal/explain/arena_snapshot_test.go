package explain

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/relation"
)

// forceArenaSnapshots drops the raw-arena size threshold so tiny test
// universes encode in the mappable arena layout, restoring it afterwards.
func forceArenaSnapshots(t *testing.T) {
	t.Helper()
	old := ArenaSnapshotThreshold
	ArenaSnapshotThreshold = 0
	t.Cleanup(func() { ArenaSnapshotThreshold = old })
}

var testHostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func TestUniverseSnapshotArenaRoundTrip(t *testing.T) {
	forceArenaSnapshots(t)
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state", "region"}, MaxOrder: 2})
	if !u.ArenaSnapshotRaw() {
		t.Fatal("threshold 0 did not select the arena snapshot layout")
	}

	payload := encodeUni(t, u)

	// Decode without aliasing: the copying path, byte-order independent.
	u2, err := decodeUni(payload, r)
	if err != nil {
		t.Fatal(err)
	}
	universesEquivalent(t, u, u2)
	if u2.ArenaMapped() || u2.MappedBytes() != 0 {
		t.Fatal("a decode without aliasing must materialize the arena on the heap")
	}

	// Decode with aliasing allowed: zero-copy on little-endian hosts,
	// transparent copy fallback elsewhere.
	u3, err := DecodeUniverseSnapshot(relation.NewSnapReaderBytes(payload), r, true)
	if err != nil {
		t.Fatal(err)
	}
	universesEquivalent(t, u, u3)
	if testHostLittleEndian {
		if !u3.ArenaMapped() {
			t.Fatal("aligned little-endian payload did not alias the arena")
		}
		want := int64(u.NumCandidates()) * int64(u.NumTimestamps()) * 16
		if got := u3.MappedBytes(); got != want {
			t.Fatalf("MappedBytes = %d, want %d", got, want)
		}
		// The aliased series must point into the payload, not the heap.
		p := uintptr(unsafe.Pointer(&u3.Candidate(0).Series[0]))
		lo := uintptr(unsafe.Pointer(&payload[0]))
		hi := lo + uintptr(len(payload))
		if p < lo || p >= hi {
			t.Fatal("aliased arena does not point into the snapshot payload")
		}
		if mapped := u3.ApproxBytes(); mapped >= u2.ApproxBytes() {
			t.Fatalf("mapped universe ApproxBytes = %d, want < heap universe's %d (arena excluded)", mapped, u2.ApproxBytes())
		}
	}
}

// TestArenaAliasSmoothReleasesMapping: smoothing a one-shot universe
// copies into heap smoothing state and must release the aliased arena,
// leaving a fully resident universe with correct series.
func TestArenaAliasSmoothReleasesMapping(t *testing.T) {
	if !testHostLittleEndian {
		t.Skip("aliasing requires a little-endian host")
	}
	forceArenaSnapshots(t)
	r := buildCovidMini(t)
	cfg := Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state", "region"}, MaxOrder: 2}
	u := newUniverse(t, r, cfg)
	u2, err := DecodeUniverseSnapshot(relation.NewSnapReaderBytes(encodeUni(t, u)), r, true)
	if err != nil {
		t.Fatal(err)
	}
	if !u2.ArenaMapped() {
		t.Fatal("decode did not alias the arena")
	}
	closed := false
	u2.SetBacking(closerFunc(func() error { closed = true; return nil }))
	u2.Smooth(3)
	if u2.ArenaMapped() || u2.MappedBytes() != 0 {
		t.Fatal("smoothing left the universe claiming a mapped arena")
	}
	if !closed {
		t.Fatal("smoothing did not release the mapping's backing")
	}
	ref := newUniverse(t, r, cfg)
	ref.Smooth(3)
	for id := 0; id < ref.NumCandidates(); id++ {
		if !reflect.DeepEqual(ref.Candidate(id).Series, u2.Candidate(id).Series) {
			t.Fatalf("candidate %d smoothed series differ between built and alias-restored universes", id)
		}
	}
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// TestArenaSnapshotRawThreshold pins the layout choice: small universes
// keep the compact encoding, threshold-crossing ones switch to the raw
// arena, and smoothed or derived universes never qualify.
func TestArenaSnapshotRawThreshold(t *testing.T) {
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state", "region"}, MaxOrder: 2})
	if u.ArenaSnapshotRaw() {
		t.Fatal("tiny universe selected the arena layout under the default threshold")
	}
	old := ArenaSnapshotThreshold
	defer func() { ArenaSnapshotThreshold = old }()
	ArenaSnapshotThreshold = int64(u.NumCandidates()) * int64(u.NumTimestamps()) * 16
	if !u.ArenaSnapshotRaw() {
		t.Fatal("universe exactly at the threshold must select the arena layout")
	}
	ArenaSnapshotThreshold = 0
	u.Smooth(3)
	if u.ArenaSnapshotRaw() {
		t.Fatal("smoothed universe must never report an arena-snapshot layout")
	}
}
