package catalog

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/explain"
	"repro/internal/relation"
	"repro/internal/synth"
)

// stageDataset installs a built relation into a fresh on-disk catalog the
// way the serving layer would: normalized CSV plus manifest.
func stageDataset(t *testing.T, name string, rel *relation.Relation, explainBy []string, maxOrder int) *Catalog {
	t.Helper()
	c := openTestCatalog(t)
	m := Manifest{
		Name:       name,
		TimeCol:    rel.TimeName(),
		DimCols:    rel.DimNames(),
		MeasureCol: rel.MeasureNames()[0],
		Agg:        "SUM",
		ExplainBy:  explainBy,
		MaxOrder:   maxOrder,
	}
	var csvBuf bytes.Buffer
	if err := relation.WriteCSV(&csvBuf, rel); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(m, bytes.NewReader(csvBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	return c
}

// universesBitIdentical compares two universes through the public API:
// same candidates in the same id order, bit-identical series, matching
// index, ancestry, and drill-down adjacency.
func universesBitIdentical(t *testing.T, a, b *explain.Universe) {
	t.Helper()
	if a.NumCandidates() != b.NumCandidates() || a.NumTimestamps() != b.NumTimestamps() {
		t.Fatalf("shape mismatch: (%d, %d) vs (%d, %d)",
			a.NumCandidates(), a.NumTimestamps(), b.NumCandidates(), b.NumTimestamps())
	}
	ta, tb := a.TotalSeries(), b.TotalSeries()
	for i := range ta {
		if math.Float64bits(ta[i].Sum) != math.Float64bits(tb[i].Sum) ||
			math.Float64bits(ta[i].Count) != math.Float64bits(tb[i].Count) {
			t.Fatalf("total series differs at %d", i)
		}
	}
	for id := 0; id < a.NumCandidates(); id++ {
		ca, cb := a.Candidate(id), b.Candidate(id)
		if !reflect.DeepEqual(ca.Conj, cb.Conj) {
			t.Fatalf("candidate %d conjunction %v vs %v", id, ca.Conj, cb.Conj)
		}
		for i := range ca.Series {
			if math.Float64bits(ca.Series[i].Sum) != math.Float64bits(cb.Series[i].Sum) ||
				math.Float64bits(ca.Series[i].Count) != math.Float64bits(cb.Series[i].Count) {
				t.Fatalf("candidate %d series differs at %d", id, i)
			}
		}
		if got, ok := b.Lookup(ca.Conj); !ok || got != id {
			t.Fatalf("candidate %d not resolvable through restored index", id)
		}
		if !reflect.DeepEqual(a.AncestorsOf(id), b.AncestorsOf(id)) {
			t.Fatalf("candidate %d ancestors differ", id)
		}
	}
}

// dimID returns the dictionary id of dimension d at row, read back through
// the column's dictionary.
func dimID(r *relation.Relation, d, row int) uint32 {
	id, _ := r.Dim(d).ID(r.DimValue(d, row))
	return id
}

// roundTripDataset saves and restores one dataset's snapshot and checks
// the restored relation and universe against the originals bit for bit.
// It returns the snapshot's on-disk size.
func roundTripDataset(t *testing.T, name string, rel *relation.Relation, explainBy []string, maxOrder int) int64 {
	t.Helper()
	c := stageDataset(t, name, rel, explainBy, maxOrder)
	fp, err := c.DataFingerprint(name)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := c.LoadRelation(name)
	if err != nil {
		t.Fatal(err)
	}
	u, err := explain.NewUniverse(loaded, explain.Config{
		Measure:   loaded.MeasureNames()[0],
		Agg:       relation.Sum,
		ExplainBy: explainBy,
		MaxOrder:  maxOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSnapshot(name, loaded, u, fp); err != nil {
		t.Fatal(err)
	}
	rel2, u2, err := c.LoadSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.NumRows() != loaded.NumRows() || rel2.NumTimestamps() != loaded.NumTimestamps() {
		t.Fatalf("restored relation shape: %d rows, %d timestamps", rel2.NumRows(), rel2.NumTimestamps())
	}
	for m := 0; m < loaded.NumMeasures(); m++ {
		for row := 0; row < loaded.NumRows(); row++ {
			if math.Float64bits(loaded.MeasureValue(m, row)) != math.Float64bits(rel2.MeasureValue(m, row)) {
				t.Fatalf("measure %d row %d not bit-identical after restore", m, row)
			}
		}
	}
	for d := 0; d < loaded.NumDims(); d++ {
		for row := 0; row < loaded.NumRows(); row++ {
			if dimID(loaded, d, row) != dimID(rel2, d, row) {
				t.Fatalf("dim %d row %d id changed after restore", d, row)
			}
		}
	}
	universesBitIdentical(t, u, u2)

	st, err := os.Stat(filepath.Join(c.Dir(), name, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// snapshotFlagsOf reads the container flags byte of a dataset's snapshot
// file.
func snapshotFlagsOf(t *testing.T, c *Catalog, name string) byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(c.Dir(), name, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw[len(snapContainerMagic)+1]
}

func TestSnapshotRoundTripStream(t *testing.T) {
	d := datasets.Stream(datasets.StreamDays)
	size := roundTripDataset(t, "stream", d.Rel, d.ExplainBy, d.MaxOrder)
	// The ISSUE gate: snapshot at most half the CSV. The normalized CSV
	// the catalog serves is what restarts would otherwise parse.
	c := stageDataset(t, "stream2", d.Rel, d.ExplainBy, d.MaxOrder)
	csv, err := os.Stat(filepath.Join(c.Dir(), "stream2", dataFile))
	if err != nil {
		t.Fatal(err)
	}
	if size*2 > csv.Size() {
		t.Fatalf("stream snapshot %dB exceeds half the %dB CSV", size, csv.Size())
	}
}

func TestSnapshotRoundTripHighCard(t *testing.T) {
	hc, err := synth.HighCardinality(synth.HighCardParams{Users: 120, Regions: 10, N: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	roundTripDataset(t, "highcard", hc.Rel, hc.Rel.DimNames(), 2)
}

func TestSnapshotRoundTripLiquor(t *testing.T) {
	if testing.Short() {
		t.Skip("liquor round-trip is a full 400k-row build")
	}
	d := datasets.Liquor()
	size := roundTripDataset(t, "liquor", d.Rel, d.ExplainBy, d.MaxOrder)
	c := stageDataset(t, "liquor2", d.Rel, d.ExplainBy, d.MaxOrder)
	csv, err := os.Stat(filepath.Join(c.Dir(), "liquor2", dataFile))
	if err != nil {
		t.Fatal(err)
	}
	if size*2 > csv.Size() {
		t.Fatalf("liquor snapshot %dB exceeds half the %dB CSV", size, csv.Size())
	}
}

// TestSnapshotContainerCompressionGate pins the size gate: small payloads
// are stored flate-compressed, large ones raw so the big-dataset restore
// path never pays decompression.
func TestSnapshotContainerCompressionGate(t *testing.T) {
	d := datasets.Stream(datasets.StreamDays)
	name := "gate"
	c := stageDataset(t, name, d.Rel, d.ExplainBy, d.MaxOrder)
	fp, err := c.DataFingerprint(name)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.LoadRelation(name)
	if err != nil {
		t.Fatal(err)
	}
	u, err := explain.NewUniverse(rel, explain.Config{
		Measure: rel.MeasureNames()[0], Agg: relation.Sum, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSnapshot(name, rel, u, fp); err != nil {
		t.Fatal(err)
	}
	if f := snapshotFlagsOf(t, c, name); f != snapCompressed {
		t.Fatalf("small snapshot stored with flags %#x, want compressed", f)
	}
	// A corrupted compressed stream whose checksum is patched to match
	// must fail cleanly in the inflater, not panic.
	path := filepath.Join(c.Dir(), name, snapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	for i := snapHeaderLen + 5; i < len(bad); i++ {
		bad[i] = 0x55
	}
	fixCRC(bad)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.LoadSnapshot(name); err == nil || !strings.Contains(err.Error(), "inflating") {
		t.Fatalf("corrupted compressed snapshot: err = %v, want an inflate error", err)
	}
}
