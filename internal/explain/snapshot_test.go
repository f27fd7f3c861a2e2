package explain

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/relation"
)

// encodeUni returns the universe's snapshot section.
func encodeUni(t *testing.T, u *Universe) []byte {
	t.Helper()
	var sw relation.SnapWriter
	if err := u.EncodeSnapshot(&sw); err != nil {
		t.Fatal(err)
	}
	return sw.Bytes()
}

// decodeUni decodes a universe section bound to rel, with the arena
// materialized on the heap.
func decodeUni(b []byte, rel *relation.Relation) (*Universe, error) {
	return DecodeUniverseSnapshot(relation.NewSnapReaderBytes(b), rel, false)
}

// universesEquivalent asserts the decoded universe reproduces the
// original's candidate set, series, index, adjacency, and ancestry
// bit for bit.
func universesEquivalent(t *testing.T, a, b *Universe) {
	t.Helper()
	if a.NumCandidates() != b.NumCandidates() || a.NumTimestamps() != b.NumTimestamps() {
		t.Fatalf("shape mismatch: (%d cands, %d T) vs (%d cands, %d T)",
			a.NumCandidates(), a.NumTimestamps(), b.NumCandidates(), b.NumTimestamps())
	}
	if a.MaxOrder() != b.MaxOrder() || a.Agg() != b.Agg() || a.MeasureIndex() != b.MeasureIndex() {
		t.Fatalf("query shape mismatch")
	}
	if !reflect.DeepEqual(a.ExplainBy(), b.ExplainBy()) {
		t.Fatalf("explain-by mismatch: %v vs %v", a.ExplainBy(), b.ExplainBy())
	}
	if !reflect.DeepEqual(a.TotalSeries(), b.TotalSeries()) {
		t.Fatalf("total series differ")
	}
	for id := 0; id < a.NumCandidates(); id++ {
		ca, cb := a.Candidate(id), b.Candidate(id)
		if !reflect.DeepEqual(ca.Conj, cb.Conj) {
			t.Fatalf("candidate %d conjunction %v vs %v", id, ca.Conj, cb.Conj)
		}
		if !reflect.DeepEqual(ca.Series, cb.Series) {
			t.Fatalf("candidate %d series differ", id)
		}
		if got, ok := b.Lookup(ca.Conj); !ok || got != id {
			t.Fatalf("candidate %d not resolvable through decoded index (got %d, %v)", id, got, ok)
		}
		if !reflect.DeepEqual(a.AncestorsOf(id), b.AncestorsOf(id)) {
			t.Fatalf("candidate %d ancestors differ", id)
		}
	}
	for _, dim := range a.ExplainBy() {
		if !reflect.DeepEqual(a.ChildrenOf(-1, dim), b.ChildrenOf(-1, dim)) {
			t.Fatalf("root children under dim %d differ", dim)
		}
	}
}

func TestUniverseSnapshotRoundTrip(t *testing.T) {
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state", "region"}, MaxOrder: 2})

	var sw relation.SnapWriter
	r.EncodeSnapshot(&sw)
	if err := u.EncodeSnapshot(&sw); err != nil {
		t.Fatal(err)
	}
	sr := relation.NewSnapReaderBytes(sw.Bytes())
	rel2, err := relation.DecodeSnapshot(sr)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := DecodeUniverseSnapshot(sr, rel2, false)
	if err != nil {
		t.Fatal(err)
	}
	universesEquivalent(t, u, u2)

	// A restored universe must accept smoothing like a built one.
	u2.Smooth(3)
	u3, err := NewUniverse(r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state", "region"}, MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	u3.Smooth(3)
	for id := 0; id < u3.NumCandidates(); id++ {
		if !reflect.DeepEqual(u3.Candidate(id).Series, u2.Candidate(id).Series) {
			t.Fatalf("candidate %d smoothed series differ between built and restored universes", id)
		}
	}
}

func TestUniverseSnapshotRejectsWrongRelation(t *testing.T) {
	r := buildCovidMini(t)
	payload := encodeUni(t, newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state"}}))

	// A relation with a different series length must be rejected.
	b := relation.NewBuilder("other", "date", []string{"state"}, []string{"cases"})
	for _, d := range []string{"d1", "d2"} {
		if err := b.Append(d, []string{"NY"}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	short, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeUni(payload, short); err == nil {
		t.Fatal("snapshot bound to a mismatched relation decoded without error")
	}
}

func TestUniverseSnapshotTruncated(t *testing.T) {
	r := buildCovidMini(t)
	full := encodeUni(t, newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state", "region"}, MaxOrder: 2}))
	for _, cut := range []int{0, 3, 9, len(full) / 3, len(full) / 2, len(full) - 1} {
		if _, err := decodeUni(full[:cut], r); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(full))
		}
	}
}

func TestUniverseSnapshotRefusesSmoothed(t *testing.T) {
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state"}})
	u.Smooth(3)
	var sw relation.SnapWriter
	if err := u.EncodeSnapshot(&sw); err == nil {
		t.Fatal("smoothed universe snapshot written without error")
	}
}

func TestUniverseSnapshotStreamingUniverse(t *testing.T) {
	// An unsmoothed streaming universe (arena with headroom) must encode
	// through the same path, stride and all.
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state"}, Streaming: true})
	u2, err := decodeUni(encodeUni(t, u), r)
	if err != nil {
		t.Fatal(err)
	}
	universesEquivalent(t, u, u2)
}

// TestUniverseSnapshotCorruptPredicates checks the predicate decoding
// rejects out-of-range dimension and value ids instead of indexing with
// them.
func TestUniverseSnapshotCorruptPredicates(t *testing.T) {
	r := buildCovidMini(t)
	full := encodeUni(t, newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state"}}))
	// Flipping bytes anywhere in the payload must never panic: it either
	// still decodes (the flip hit a value byte) or errors cleanly.
	for i := 0; i < len(full); i++ {
		bad := append([]byte(nil), full...)
		bad[i] ^= 0xFF
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("byte flip at %d/%d panicked: %v", i, len(full), p)
				}
			}()
			_, _ = decodeUni(bad, r)
		}()
	}
}

// TestUniverseSnapshotRejectsOtherFormats: any section version but the
// current one — the earlier layouts 1–3 included — and any arena layout
// byte but the two defined ones fail the decode.
func TestUniverseSnapshotRejectsOtherFormats(t *testing.T) {
	r := buildCovidMini(t)
	full := encodeUni(t, newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state"}}))
	at := len(uniSnapMagic)
	for _, v := range []byte{1, 2, 3, uniSnapVersion + 1} {
		bad := append([]byte(nil), full...)
		bad[at] = v
		if _, err := decodeUni(bad, r); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("section version %d: err = %v, want a version error", v, err)
		}
	}
	bad := append([]byte(nil), full...)
	bad[at+1] = 7
	if _, err := decodeUni(bad, r); err == nil || !strings.Contains(err.Error(), "arena layout") {
		t.Fatalf("arena layout 7: err = %v, want an arena layout error", err)
	}
}

// TestUniverseSnapshotCountBeyondData pins the allocation guard for the
// explain-by count: a count larger than the bytes left fails the decode
// with an error instead of a 16 GiB allocation.
func TestUniverseSnapshotCountBeyondData(t *testing.T) {
	r := buildCovidMini(t)
	b := append([]byte(uniSnapMagic), uniSnapVersion, arenaCompact, 5)
	b = append(b, "cases"...)
	b = append(b, byte(relation.Sum))
	b = binary.AppendUvarint(b, 1<<31-1)
	_, err := decodeUni(b, r)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized explain-by count: err = %v, want a count-exceeds-data error", err)
	}
}

// snapshotPayload encodes d's relation and raw universe sections into one
// payload, the way the catalog does.
func snapshotPayload(f *testing.F, d *datasets.Dataset) []byte {
	u, err := NewUniverse(d.Rel, Config{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder})
	if err != nil {
		f.Fatal(err)
	}
	var sw relation.SnapWriter
	d.Rel.EncodeSnapshot(&sw)
	if err := u.EncodeSnapshot(&sw); err != nil {
		f.Fatal(err)
	}
	return sw.Bytes()
}

// FuzzDecodeSnapshot feeds arbitrary bytes through the relation decoder
// and, when that succeeds, the universe decoder bound to the result — the
// surface a snapshot reaches once its container checksum is forged.
// Decoding must error or succeed, never panic or allocate beyond what
// the payload can back. Seeds: the stream (compact and raw arena), covid
// and vax-deaths payloads, and a relation section whose label count
// exceeds the data.
func FuzzDecodeSnapshot(f *testing.F) {
	stream := datasets.Stream(datasets.StreamDays)
	streamPayload := snapshotPayload(f, stream)
	f.Add(streamPayload)
	f.Add(snapshotPayload(f, datasets.CovidTotal()))
	f.Add(snapshotPayload(f, datasets.VaxDeaths()))
	old := ArenaSnapshotThreshold
	ArenaSnapshotThreshold = 0
	f.Add(snapshotPayload(f, stream))
	ArenaSnapshotThreshold = old
	// Relation magic and version, empty names, zero rows, 2³¹−1 labels.
	f.Add(binary.AppendUvarint(append(streamPayload[:5:5], 0, 0, 0), 1<<31-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		sr := relation.NewSnapReaderBytes(data)
		rel, err := relation.DecodeSnapshot(sr)
		if err != nil {
			return
		}
		_, _ = DecodeUniverseSnapshot(sr, rel, true)
	})
}
