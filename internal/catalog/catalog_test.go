package catalog

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/explain"
	"repro/internal/relation"
)

const testCSV = `date,state,county,cases,ignored
2020-01-01,NY,a,5,x
2020-01-01,CA,b,3,x
2020-01-02,NY,a,7,x
2020-01-02,CA,b,4,x
2020-01-03,NY,a,9,x
2020-01-03,CA,b,6,x
`

func testManifest() Manifest {
	return Manifest{
		Name:       "epidemic",
		Aliases:    []string{"epi", "cases"},
		TimeCol:    "date",
		DimCols:    []string{"state", "county"},
		MeasureCol: "cases",
		Agg:        "SUM",
		MaxOrder:   2,
	}
}

func openTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestManifestValidation(t *testing.T) {
	good := testManifest()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Manifest)
		wantIn string
	}{
		{func(m *Manifest) { m.Name = "Bad Name" }, "bad dataset name"},
		{func(m *Manifest) { m.Name = "../escape" }, "bad dataset name"},
		{func(m *Manifest) { m.Aliases = []string{"epidemic"} }, "repeats"},
		{func(m *Manifest) { m.Aliases = []string{"x", "x"} }, "repeats"},
		{func(m *Manifest) { m.TimeCol = "" }, "timeCol"},
		{func(m *Manifest) { m.DimCols = nil }, "dimCols"},
		{func(m *Manifest) { m.DimCols = []string{"state", "state"} }, "repeated"},
		{func(m *Manifest) { m.MeasureCol = "" }, "measureCol"},
		{func(m *Manifest) { m.MeasureCol = "state" }, "repeated"},
		{func(m *Manifest) { m.Agg = "MEDIAN" }, "unknown aggregate"},
		{func(m *Manifest) { m.ExplainBy = []string{"nope"} }, "not a dimCols entry"},
		{func(m *Manifest) { m.ExplainBy = []string{"state", "state"} }, "repeated"},
		{func(m *Manifest) { m.MaxOrder = 99 }, "maxOrder"},
		{func(m *Manifest) { m.SmoothWindow = -1 }, "smoothWindow"},
	}
	for i, tc := range cases {
		m := testManifest()
		tc.mutate(&m)
		err := m.Validate()
		if err == nil {
			t.Errorf("case %d: invalid manifest accepted", i)
		} else if !strings.Contains(err.Error(), tc.wantIn) {
			t.Errorf("case %d: error %q does not mention %q", i, err, tc.wantIn)
		}
	}
	if _, err := ParseManifest([]byte(`{"name":"x","timecolumn":"date"}`)); err == nil {
		t.Error("unknown manifest field accepted")
	}
	doc, err := json.Marshal(testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseManifest(append(doc, " \n"...)); err != nil {
		t.Errorf("manifest followed by whitespace rejected: %v", err)
	}
	for _, tail := range []string{` {"x":1}`, ` {}`, "x", "]"} {
		if _, err := ParseManifest(append(doc, tail...)); err == nil {
			t.Errorf("manifest followed by %q accepted", tail)
		}
	}
}

func TestCreateListLoadDelete(t *testing.T) {
	c := openTestCatalog(t)
	rel, err := c.Create(testManifest(), strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 6 || rel.NumTimestamps() != 3 || rel.NumDims() != 2 {
		t.Fatalf("parsed relation shape: %d rows, %d timestamps, %d dims", rel.NumRows(), rel.NumTimestamps(), rel.NumDims())
	}
	if got := c.Names(); len(got) != 1 || got[0] != "epidemic" {
		t.Fatalf("Names = %v", got)
	}
	for _, alias := range []string{"epidemic", "epi", "cases"} {
		if canon, ok := c.Resolve(alias); !ok || canon != "epidemic" {
			t.Fatalf("Resolve(%q) = %q, %v", alias, canon, ok)
		}
	}
	if _, ok := c.Resolve("nope"); ok {
		t.Fatal("Resolve accepted an unknown name")
	}

	// The normalized CSV drops unmapped columns and reloads identically.
	loaded, err := c.LoadRelation("epidemic")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRows() != rel.NumRows() || loaded.NumTimestamps() != rel.NumTimestamps() {
		t.Fatalf("reloaded relation differs: %d rows, %d timestamps", loaded.NumRows(), loaded.NumTimestamps())
	}
	for row := 0; row < rel.NumRows(); row++ {
		if loaded.DimValue(0, row) != rel.DimValue(0, row) || loaded.MeasureValue(0, row) != rel.MeasureValue(0, row) {
			t.Fatalf("reloaded row %d differs", row)
		}
	}

	// Create collisions: same name, alias vs name, name vs alias.
	if _, err := c.Create(testManifest(), strings.NewReader(testCSV)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	m2 := testManifest()
	m2.Name = "epi" // collides with an alias of epidemic
	m2.Aliases = nil
	if _, err := c.Create(m2, strings.NewReader(testCSV)); !errors.Is(err, ErrExists) {
		t.Fatalf("alias-colliding create: %v", err)
	}

	// A fresh Open over the same dir rediscovers the dataset.
	c2, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if canon, ok := c2.Resolve("epi"); !ok || canon != "epidemic" {
		t.Fatalf("rescan lost the dataset: %q, %v", canon, ok)
	}

	if err := c.Delete("epidemic"); err != nil {
		t.Fatal(err)
	}
	if len(c.Names()) != 0 {
		t.Fatal("Delete left the dataset listed")
	}
	if _, ok := c.Resolve("epi"); ok {
		t.Fatal("Delete left an alias resolvable")
	}
	if _, err := c.LoadRelation("epidemic"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LoadRelation after delete: %v", err)
	}
	if err := c.Delete("epidemic"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// The name is reusable after deletion.
	if _, err := c.Create(testManifest(), strings.NewReader(testCSV)); err != nil {
		t.Fatalf("re-create after delete: %v", err)
	}
}

func TestCreateRejectsBadCSV(t *testing.T) {
	c := openTestCatalog(t)
	// Missing measure column.
	bad := "date,state\n2020-01-01,NY\n"
	if _, err := c.Create(testManifest(), strings.NewReader(bad)); err == nil {
		t.Fatal("CSV without mapped columns accepted")
	}
	// Non-numeric measure.
	bad = "date,state,county,cases\n2020-01-01,NY,a,notanumber\n"
	if _, err := c.Create(testManifest(), strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric measure accepted")
	}
	// A failed create leaves nothing behind: no registration, no files.
	if len(c.Names()) != 0 {
		t.Fatalf("failed create registered a dataset: %v", c.Names())
	}
	entries, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if ValidName(e.Name()) {
			t.Fatalf("failed create left %q on disk", e.Name())
		}
	}
}

func TestAppendRowsPersists(t *testing.T) {
	c := openTestCatalog(t)
	if _, err := c.Create(testManifest(), strings.NewReader(testCSV)); err != nil {
		t.Fatal(err)
	}
	err := c.AppendRows("epidemic",
		[]string{"2020-01-04", "2020-01-04"},
		[][]string{{"NY", "a"}, {"FL", "c"}},
		[][]float64{{11}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.LoadRelation("epidemic")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 8 || rel.NumTimestamps() != 4 {
		t.Fatalf("after append: %d rows, %d timestamps", rel.NumRows(), rel.NumTimestamps())
	}
	if _, ok := rel.Dim(0).ID("FL"); !ok {
		t.Fatal("appended dictionary value FL missing after reload")
	}
}

// buildUniverse builds the raw universe for a catalog dataset the way the
// serving layer's snapshot refresher does.
func buildUniverse(t *testing.T, m Manifest, rel *relation.Relation) *explain.Universe {
	t.Helper()
	agg, err := m.AggFunc()
	if err != nil {
		t.Fatal(err)
	}
	u, err := explain.NewUniverse(rel, explain.Config{
		Measure: m.MeasureCol, Agg: agg, ExplainBy: m.ExplainBy, MaxOrder: m.EffectiveMaxOrder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// mustFingerprint fetches the dataset's current CSV fingerprint.
func mustFingerprint(t *testing.T, c *Catalog, name string) Fingerprint {
	t.Helper()
	fp, err := c.DataFingerprint(name)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestSaveSnapshotAbortsOnConcurrentAppend pins the refresher race rule:
// a snapshot built from a pre-append parse must not be saved once the CSV
// has grown, or LoadSnapshot would serve pre-append data as current.
func TestSaveSnapshotAbortsOnConcurrentAppend(t *testing.T) {
	c := openTestCatalog(t)
	m := testManifest()
	rel, err := c.Create(m, strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	fp := mustFingerprint(t, c, "epidemic")
	u := buildUniverse(t, m, rel)
	// An append lands between the build and the save.
	if err := c.AppendRows("epidemic",
		[]string{"2020-01-04"}, [][]string{{"NY", "a"}}, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSnapshot("epidemic", rel, u, fp); !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("stale save: %v, want ErrSnapshotStale", err)
	}
	if c.HasSnapshot("epidemic") {
		t.Fatal("aborted save left a snapshot file")
	}
}

func TestSnapshotSaveLoad(t *testing.T) {
	c := openTestCatalog(t)
	m := testManifest()
	rel, err := c.Create(m, strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	if c.HasSnapshot("epidemic") {
		t.Fatal("snapshot reported before one was saved")
	}
	u := buildUniverse(t, m, rel)
	if err := c.SaveSnapshot("epidemic", rel, u, mustFingerprint(t, c, "epidemic")); err != nil {
		t.Fatal(err)
	}
	if !c.HasSnapshot("epidemic") {
		t.Fatal("snapshot not reported after save")
	}
	rel2, u2, err := c.LoadSnapshot("epidemic")
	if err != nil {
		t.Fatal(err)
	}
	if rel2.NumRows() != rel.NumRows() || u2.NumCandidates() != u.NumCandidates() {
		t.Fatalf("restored shape: %d rows, %d candidates (want %d, %d)",
			rel2.NumRows(), u2.NumCandidates(), rel.NumRows(), u.NumCandidates())
	}
}

func TestSnapshotStaleAfterAppend(t *testing.T) {
	c := openTestCatalog(t)
	m := testManifest()
	rel, err := c.Create(m, strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSnapshot("epidemic", rel, buildUniverse(t, m, rel), mustFingerprint(t, c, "epidemic")); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("epidemic",
		[]string{"2020-01-04"}, [][]string{{"NY", "a"}}, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.LoadSnapshot("epidemic"); !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("post-append snapshot load: %v, want ErrSnapshotStale", err)
	}
}

func TestSnapshotCorruptionAndTruncation(t *testing.T) {
	c := openTestCatalog(t)
	m := testManifest()
	rel, err := c.Create(m, strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveSnapshot("epidemic", rel, buildUniverse(t, m, rel), mustFingerprint(t, c, "epidemic")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), "epidemic", "snapshot.bin")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte: the checksum must catch it.
	bad := append([]byte(nil), full...)
	bad[len(bad)-3] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.LoadSnapshot("epidemic"); err == nil || errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("corrupted snapshot load: %v, want checksum error", err)
	}

	// Truncate at several points: header, mid-payload, last byte.
	for _, cut := range []int{0, 5, 20, len(full) / 2, len(full) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.LoadSnapshot("epidemic"); err == nil {
			t.Fatalf("snapshot truncated at %d of %d loaded without error", cut, len(full))
		}
	}

	// Restore the intact file: load works again (the failure path did not
	// poison anything).
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.LoadSnapshot("epidemic"); err != nil {
		t.Fatalf("restored snapshot load: %v", err)
	}
}

func TestConcurrentCreates(t *testing.T) {
	c := openTestCatalog(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := testManifest()
			_, errs[i] = c.Create(m, strings.NewReader(testCSV))
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
		} else if !errors.Is(err, ErrExists) {
			t.Fatalf("unexpected create error: %v", err)
		}
	}
	if ok != 1 {
		t.Fatalf("%d concurrent creates of one name succeeded, want exactly 1", ok)
	}
}

const derivedCSV = `date,loc,sales,price
2020-01-01,TX/hou,5,10
2020-01-01,TX/aus,3,40
2020-01-01,CA/la,2,90
2020-01-02,TX/hou,7,12
2020-01-02,TX/aus,4,45
2020-01-02,CA/la,6,80
2020-01-03,TX/hou,9,11
2020-01-03,CA/la,8,85
`

func derivedManifest() Manifest {
	return Manifest{
		Name:       "geo",
		TimeCol:    "date",
		DimCols:    []string{"loc"},
		MeasureCol: "sales",
		Agg:        "SUM",
		ExplainBy:  []string{"state", "county", "price_bin"},
		MaxOrder:   2,
		Hierarchies: []HierarchySpec{
			{Name: "geo", Levels: []string{"state", "county"}, PathCol: "loc"},
		},
		RangeBins: []RangeBinSpec{
			{Column: "price", Bins: 2, As: "price_bin"},
		},
	}
}

// sameDims fails the test unless got holds want's rows with the same
// value in every dimension column, derived ones included.
func sameDims(t *testing.T, ctx string, got, want *relation.Relation) {
	t.Helper()
	if got.NumDims() != want.NumDims() || got.NumRows() != want.NumRows() {
		t.Fatalf("%s: shape differs: %d dims %d rows vs %d dims %d rows",
			ctx, got.NumDims(), got.NumRows(), want.NumDims(), want.NumRows())
	}
	for row := 0; row < want.NumRows(); row++ {
		for d := 0; d < want.NumDims(); d++ {
			if got.DimValue(d, row) != want.DimValue(d, row) {
				t.Fatalf("%s: row %d dim %d: got %q, want %q", ctx, row, d, got.DimValue(d, row), want.DimValue(d, row))
			}
		}
	}
}

// TestCreateWithDerivedColumns: Create derives hierarchy levels and range
// bins, persists base columns only and records the fitted range-bin edges
// in the stored manifest, and LoadRelation re-derives the exact same
// column set — before and after appends that land outside the fitted
// range — so snapshot restores, cold loads and the live relation agree.
func TestCreateWithDerivedColumns(t *testing.T) {
	c := openTestCatalog(t)
	m := derivedManifest()
	rel, err := c.Create(m, strings.NewReader(derivedCSV))
	if err != nil {
		t.Fatal(err)
	}
	if m.RangeBins[0].Edges != nil {
		t.Fatalf("Create wrote edges %v into the caller's manifest", *m.RangeBins[0].Edges)
	}
	stored, _ := c.Manifest("geo")
	if got := stored.RangeBins[0].Edges; got == nil || !reflect.DeepEqual(*got, []float64{45}) {
		t.Fatalf("stored price_bin edges = %v, want the fitted [45]", got)
	}
	if rel.NumBaseDims() != 1 || rel.NumDims() != 4 {
		t.Fatalf("derived relation has %d base / %d total dims, want 1 / 4", rel.NumBaseDims(), rel.NumDims())
	}
	if len(rel.Hierarchies()) != 1 {
		t.Fatalf("hierarchies = %d, want 1", len(rel.Hierarchies()))
	}
	// Each bin label renders its edges exactly, and every equi-depth bin
	// holds at least the value its lower edge was cut at, so the per-row
	// comparison after the reload below pins every frozen edge.
	if n := rel.Dim(rel.DimIndex("price_bin")).Cardinality(); n < 2 {
		t.Fatalf("price_bin has %d bins, want at least one edge", n)
	}

	// The persisted CSV holds base columns only (loc, not the derived
	// state/county/price_bin), plus every measure Spec() loads.
	raw, err := os.ReadFile(filepath.Join(c.Dir(), "geo", dataFile))
	if err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(string(raw), "\n", 2)[0]
	if strings.Contains(header, "state") || strings.Contains(header, "price_bin") {
		t.Fatalf("derived columns leaked into the persisted CSV header %q", header)
	}
	if !strings.Contains(header, "price") {
		t.Fatalf("range-bin source column missing from persisted CSV header %q", header)
	}

	loaded, err := c.LoadRelation("geo")
	if err != nil {
		t.Fatal(err)
	}
	sameDims(t, "reload", loaded, rel)

	// The derived columns are valid explain-by attributes.
	u := buildUniverse(t, m, rel)
	if u.NumCandidates() == 0 {
		t.Fatal("no candidates over derived explain-by attributes")
	}

	// Appends persist every Spec() measure and re-derive on reload. Their
	// prices lie far above the fitted range, so fitting the edges again
	// over all rows would move the edge to 1000 and relabel the rows
	// priced 45–90; the reload must bin them as the live relation does.
	times := []string{"2020-01-04", "2020-01-04", "2020-01-04", "2020-01-05", "2020-01-05", "2020-01-05", "2020-01-06", "2020-01-06"}
	var dims [][]string
	var meas [][]float64
	for i := range times {
		dims = append(dims, []string{[]string{"TX/hou", "TX/aus", "CA/la"}[i%3]})
		meas = append(meas, []float64{float64(i + 1), float64(1000 * (i + 1))})
	}
	if err := rel.AppendRows(times, dims, meas); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("geo", times, dims, meas); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("geo",
		[]string{"2020-01-07"}, [][]string{{"TX/hou"}}, [][]float64{{11}}); err == nil {
		t.Fatal("append with missing range-bin source measure accepted")
	}
	again, err := c.LoadRelation("geo")
	if err != nil {
		t.Fatal(err)
	}
	sameDims(t, "reload after append", again, rel)
	reopened, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := reopened.LoadRelation("geo")
	if err != nil {
		t.Fatal(err)
	}
	sameDims(t, "reopened catalog after append", restarted, rel)
	if got, _ := c.Manifest("geo"); !reflect.DeepEqual(*got.RangeBins[0].Edges, []float64{45}) {
		t.Fatalf("loads changed the in-memory edges to %v", *got.RangeBins[0].Edges)
	}

	// A manifest stored without edges keeps fitting them on every load,
	// now over the appended rows too.
	unrecorded := stored
	unrecorded.RangeBins = []RangeBinSpec{stored.RangeBins[0]}
	unrecorded.RangeBins[0].Edges = nil
	legacy, err := json.Marshal(&unrecorded)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), "geo", manifestFile), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if reopened, err = Open(c.Dir()); err != nil {
		t.Fatal(err)
	}
	refit, err := reopened.LoadRelation("geo")
	if err != nil {
		t.Fatal(err)
	}
	if got := refit.RangeBinEdges("price_bin"); !reflect.DeepEqual(got, []float64{1000}) {
		t.Fatalf("manifest without edges binned with %v, want edges refitted to [1000]", got)
	}
}

// TestConstantRangeBinSurvivesAppend: a range-bin source the upload holds
// constant gets no edges, and the stored manifest records that empty list
// — not an absent one, which would fit edges over the appended rows on
// the next load.
func TestConstantRangeBinSurvivesAppend(t *testing.T) {
	c := openTestCatalog(t)
	const constCSV = `date,loc,sales,price
2020-01-01,TX/hou,5,10
2020-01-02,TX/hou,7,10
2020-01-03,CA/la,8,10
`
	rel, err := c.Create(derivedManifest(), strings.NewReader(constCSV))
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := c.Manifest("geo")
	if got := stored.RangeBins[0].Edges; got == nil || len(*got) != 0 {
		t.Fatalf("stored edges = %v, want a recorded empty list", got)
	}
	times := []string{"2020-01-04", "2020-01-04", "2020-01-05"}
	dims := [][]string{{"TX/hou"}, {"CA/la"}, {"TX/hou"}}
	meas := [][]float64{{1, 1000}, {2, 2000}, {3, 3000}}
	if err := rel.AppendRows(times, dims, meas); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("geo", times, dims, meas); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := reopened.LoadRelation("geo")
	if err != nil {
		t.Fatal(err)
	}
	sameDims(t, "reload after append", loaded, rel)
}

// TestCreateRefusesEdges: range-bin edges are recorded by the catalog,
// never taken from an upload.
func TestCreateRefusesEdges(t *testing.T) {
	c := openTestCatalog(t)
	m := derivedManifest()
	m.RangeBins[0].Edges = &[]float64{50}
	if _, err := c.Create(m, strings.NewReader(derivedCSV)); err == nil || !strings.Contains(err.Error(), "edges") {
		t.Fatalf("Create with edges: err = %v, want a refusal naming edges", err)
	}
	if _, ok := c.Resolve("geo"); ok {
		t.Fatal("refused create left the name registered")
	}
}

// TestCreateRejectsBadDerivedData: derivation failures (a path value with
// the wrong segment count, a multi-parent taxonomy) surface at Create and
// leave nothing on disk.
func TestCreateRejectsBadDerivedData(t *testing.T) {
	c := openTestCatalog(t)
	bad := `date,loc,sales,price
2020-01-01,TX/hou,5,10
2020-01-02,notapath,7,12
`
	if _, err := c.Create(derivedManifest(), strings.NewReader(bad)); err == nil {
		t.Fatal("bad path data accepted")
	}
	entries, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if ValidName(e.Name()) {
			t.Fatalf("failed create left %q on disk", e.Name())
		}
	}
	if _, ok := c.Resolve("geo"); ok {
		t.Fatal("failed create left the name registered")
	}
}
