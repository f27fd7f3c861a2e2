package relation

import (
	"bytes"
	"strings"
	"testing"
)

// taxRelation builds a small relation with explicit state/county columns
// plus a path column mirroring them.
// hierarchyNamed returns the declared hierarchy with the given name.
func hierarchyNamed(r *Relation, name string) *Hierarchy {
	for _, h := range r.hiers {
		if h.name == name {
			return h
		}
	}
	return nil
}

func taxRelation(t *testing.T) *Relation {
	t.Helper()
	b := NewBuilder("tax", "day", []string{"state", "county", "path"}, []string{"sales"})
	rows := []struct {
		day, state, county string
		v                  float64
	}{
		{"d1", "TX", "Houston", 10},
		{"d1", "TX", "Austin", 5},
		{"d1", "CA", "Fresno", 7},
		{"d2", "TX", "Houston", 11},
		{"d2", "CA", "Fresno", 2},
		{"d2", "CA", "Shasta", 4},
	}
	for _, r := range rows {
		if err := b.Append(r.day, []string{r.state, r.county, r.state + "/" + r.county}, []float64{r.v}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDeclareHierarchy(t *testing.T) {
	r := taxRelation(t)
	if err := r.DeclareHierarchy("geo", []string{"state", "county"}); err != nil {
		t.Fatal(err)
	}
	h := hierarchyNamed(r, "geo")
	if h == nil || h.NumLevels() != 2 {
		t.Fatalf("hierarchy not registered: %+v", h)
	}
	county := r.Dim(h.LevelDim(1))
	state := r.Dim(h.LevelDim(0))
	hid, _ := county.ID("Houston")
	if got := state.Value(h.ParentID(1, hid)); got != "TX" {
		t.Fatalf("parent of Houston = %q, want TX", got)
	}

	// Redeclaration and overlapping dimensions are rejected.
	if err := r.DeclareHierarchy("geo", []string{"state", "county"}); err == nil {
		t.Fatal("duplicate hierarchy name accepted")
	}
	if err := r.DeclareHierarchy("geo2", []string{"state", "path"}); err == nil {
		t.Fatal("dimension in two hierarchies accepted")
	}
}

func TestDeclareHierarchyRejectsMultiParent(t *testing.T) {
	b := NewBuilder("bad", "day", []string{"state", "county"}, []string{"v"})
	_ = b.Append("d1", []string{"TX", "Springfield"}, []float64{1})
	_ = b.Append("d1", []string{"CA", "Springfield"}, []float64{1})
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DeclareHierarchy("geo", []string{"state", "county"}); err == nil {
		t.Fatal("multi-parent county accepted")
	} else if !strings.Contains(err.Error(), "Springfield") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestDeriveHierarchyFromPath(t *testing.T) {
	r := taxRelation(t)
	if err := r.DeriveHierarchyFromPath("geo", "path", "/", []string{"p_state", "p_county"}); err != nil {
		t.Fatal(err)
	}
	if r.NumDims() != 5 || r.NumBaseDims() != 3 {
		t.Fatalf("dims = %d base = %d, want 5/3", r.NumDims(), r.NumBaseDims())
	}
	if got := r.DimValue(r.DimIndex("p_state"), 2); got != "CA" {
		t.Fatalf("p_state row 2 = %q, want CA", got)
	}
	if got := r.DimValue(r.DimIndex("p_county"), 0); got != "Houston" {
		t.Fatalf("p_county row 0 = %q, want Houston", got)
	}
	h := hierarchyNamed(r, "geo")
	if h == nil || h.NumLevels() != 2 {
		t.Fatal("derived hierarchy not registered")
	}

	// Wrong segment counts are rejected without mutating the relation.
	r2 := taxRelation(t)
	if err := r2.DeriveHierarchyFromPath("geo", "state", "/", []string{"a", "b"}); err == nil {
		t.Fatal("non-path column accepted")
	}
	if r2.NumDims() != 3 {
		t.Fatalf("failed derivation mutated the relation: %d dims", r2.NumDims())
	}
	// The path column itself cannot be one of its level names.
	if err := r2.DeriveHierarchyFromPath("geo", "path", "/", []string{"path", "b"}); err == nil {
		t.Fatal("cyclic path level accepted")
	}
}

func TestAppendRowsGrowsHierarchy(t *testing.T) {
	r := taxRelation(t)
	if err := r.DeclareHierarchy("geo", []string{"state", "county"}); err != nil {
		t.Fatal(err)
	}
	// New county under a new state extends the parent maps.
	err := r.AppendRows([]string{"d3"},
		[][]string{{"NY", "Kings", "NY/Kings"}},
		[][]float64{{3}})
	if err != nil {
		t.Fatal(err)
	}
	h := hierarchyNamed(r, "geo")
	county := r.Dim(h.LevelDim(1))
	kid, ok := county.ID("Kings")
	if !ok {
		t.Fatal("Kings not appended")
	}
	if got := r.Dim(h.LevelDim(0)).Value(h.ParentID(1, kid)); got != "NY" {
		t.Fatalf("parent of Kings = %q, want NY", got)
	}
	// A known county moving to a different state is rejected pre-mutation.
	before := r.NumRows()
	err = r.AppendRows([]string{"d3"},
		[][]string{{"CA", "Houston", "CA/Houston"}},
		[][]float64{{1}})
	if err == nil {
		t.Fatal("re-parented county accepted")
	}
	if r.NumRows() != before {
		t.Fatal("failed append mutated the relation")
	}
}

func TestAppendRowsAutoDerives(t *testing.T) {
	r := taxRelation(t)
	if err := r.DeriveHierarchyFromPath("geo", "path", "/", []string{"p_state", "p_county"}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddRangeBin("sales_bin", "sales", 3); err != nil {
		t.Fatal(err)
	}
	// Base-width rows: derived columns are recomputed engine-side.
	err := r.AppendRows([]string{"d3"},
		[][]string{{"NY", "Kings", "NY/Kings"}},
		[][]float64{{100}})
	if err != nil {
		t.Fatal(err)
	}
	last := r.NumRows() - 1
	if got := r.DimValue(r.DimIndex("p_county"), last); got != "Kings" {
		t.Fatalf("auto-derived p_county = %q, want Kings", got)
	}
	edges, _ := rangeBinEdges(r, "sales_bin")
	wantBin := BinLabel(edges, AssignBin(edges, 100))
	if got := r.DimValue(r.DimIndex("sales_bin"), last); got != wantBin {
		t.Fatalf("auto-derived sales_bin = %q, want %q", got, wantBin)
	}
	// Full-width rows (snapshot replay shape) are accepted as-is.
	full := make([]string, r.NumDims())
	for d := range full {
		full[d] = r.DimValue(d, last)
	}
	if err := r.AppendRows([]string{"d3"}, [][]string{full}, [][]float64{{100}}); err != nil {
		t.Fatalf("full-width append: %v", err)
	}
}

func TestHierarchySnapshotRoundTrip(t *testing.T) {
	r := taxRelation(t)
	if err := r.DeriveHierarchyFromPath("geo", "path", "/", []string{"p_state", "p_county"}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddRangeBin("sales_bin", "sales", 3); err != nil {
		t.Fatal(err)
	}
	b := encodeRel(r)
	got, err := decodeRel(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDims() != r.NumDims() || got.NumBaseDims() != r.NumBaseDims() {
		t.Fatalf("restored dims = %d/%d, want %d/%d",
			got.NumDims(), got.NumBaseDims(), r.NumDims(), r.NumBaseDims())
	}
	h := hierarchyNamed(got, "geo")
	if h == nil || h.NumLevels() != 2 {
		t.Fatal("hierarchy lost across snapshot")
	}
	we, _ := rangeBinEdges(r, "sales_bin")
	ge, ok := rangeBinEdges(got, "sales_bin")
	if !ok {
		t.Fatal("range-bin edges lost across snapshot")
	}
	if len(we) != len(ge) {
		t.Fatalf("edge count %d != %d", len(ge), len(we))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("edge %d: %v != %v (edges must restore bit-identical)", i, ge[i], we[i])
		}
	}
	// Re-encoding the restored relation is byte-identical.
	if !bytes.Equal(b, encodeRel(got)) {
		t.Fatal("snapshot round-trip not byte-stable")
	}
}
