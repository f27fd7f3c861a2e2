package relation

import (
	"math"
	"math/rand"
	"testing"
)

// rangeBinEdges returns the frozen edges of the named range-bin column.
func rangeBinEdges(r *Relation, name string) ([]float64, bool) {
	d := r.DimIndex(name)
	if d < 0 {
		return nil, false
	}
	for i := range r.derived {
		if r.derived[i].dim == d && r.derived[i].kind == derivedRangeBin {
			return append([]float64(nil), r.derived[i].edges...), true
		}
	}
	return nil, false
}

// checkEdges asserts the EquiDepthEdges invariants for any input: edges
// strictly increasing, all finite, and every finite value assignable to
// exactly one bin in [0, len(edges)].
func checkEdges(t *testing.T, vals []float64, bins int, edges []float64) {
	t.Helper()
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			t.Fatalf("edges not strictly increasing at %d: %v", i, edges)
		}
	}
	for _, e := range edges {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("non-finite edge in %v", edges)
		}
	}
	if len(edges) > bins-1 {
		t.Fatalf("%d edges for %d bins", len(edges), bins)
	}
	for _, v := range vals {
		b := AssignBin(edges, v)
		if math.IsNaN(v) {
			if b != -1 {
				t.Fatalf("NaN assigned to bin %d", b)
			}
			continue
		}
		if b < 0 || b > len(edges) {
			t.Fatalf("value %v assigned to out-of-range bin %d", v, b)
		}
		// Bin membership is consistent with the edge definition:
		// bin b holds values in [edges[b-1], edges[b]).
		if b > 0 && v < edges[b-1] {
			t.Fatalf("value %v in bin %d but below edge %v", v, b, edges[b-1])
		}
		if b < len(edges) && v >= edges[b] {
			t.Fatalf("value %v in bin %d but ≥ edge %v", v, b, edges[b])
		}
	}
}

func TestEquiDepthEdgesUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	for _, bins := range []int{2, 4, 8, 16} {
		edges := EquiDepthEdges(vals, bins)
		checkEdges(t, vals, bins, edges)
		if len(edges) != bins-1 {
			t.Fatalf("uniform data with %d bins got %d edges", bins, len(edges))
		}
		// Equi-depth: with 10k distinct-ish draws, each bin holds n/bins ±1%.
		counts := make([]int, bins)
		for _, v := range vals {
			counts[AssignBin(edges, v)]++
		}
		want := len(vals) / bins
		for b, c := range counts {
			if c < want-want/10 || c > want+want/10 {
				t.Fatalf("bin %d holds %d values, want ≈%d: %v", b, c, want, counts)
			}
		}
	}
}

func TestEquiDepthEdgesDuplicateHeavy(t *testing.T) {
	// 90% of the mass is a single value; split refinement must slide edges
	// past the duplicate run rather than emit non-increasing edges.
	vals := make([]float64, 1000)
	for i := range vals {
		if i < 900 {
			vals[i] = 5
		} else {
			vals[i] = float64(i)
		}
	}
	edges := EquiDepthEdges(vals, 8)
	checkEdges(t, vals, 8, edges)
	if len(edges) == 0 {
		t.Fatal("no edges for duplicate-heavy data with 101 distinct values")
	}
}

func TestEquiDepthEdgesDegenerate(t *testing.T) {
	if e := EquiDepthEdges(nil, 4); len(e) != 0 {
		t.Fatalf("edges for empty input: %v", e)
	}
	if e := EquiDepthEdges([]float64{3, 3, 3}, 4); len(e) != 0 {
		t.Fatalf("edges for constant input: %v", e)
	}
	nan := math.NaN()
	if e := EquiDepthEdges([]float64{nan, nan}, 4); len(e) != 0 {
		t.Fatalf("edges for all-NaN input: %v", e)
	}
	inf := math.Inf(1)
	e := EquiDepthEdges([]float64{1, 2, inf, inf, inf, -inf}, 3)
	checkEdges(t, []float64{1, 2, inf, -inf}, 3, e)
}

func TestAssignBinBoundaries(t *testing.T) {
	edges := []float64{10, 20, 30}
	cases := []struct {
		v    float64
		want int
	}{
		{math.Inf(-1), 0}, {9.999, 0}, {10, 1}, {15, 1},
		{20, 2}, {29.999, 2}, {30, 3}, {math.Inf(1), 3},
		{math.NaN(), -1},
	}
	for _, c := range cases {
		if got := AssignBin(edges, c.v); got != c.want {
			t.Fatalf("AssignBin(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBinLabel(t *testing.T) {
	edges := []float64{10, 20}
	if got := BinLabel(edges, -1); got != "NaN" {
		t.Fatalf("NaN label = %q", got)
	}
	if got := BinLabel(edges, 0); got != "[-inf,10)" {
		t.Fatalf("first label = %q", got)
	}
	if got := BinLabel(edges, 1); got != "[10,20)" {
		t.Fatalf("middle label = %q", got)
	}
	if got := BinLabel(edges, 2); got != "[20,+inf)" {
		t.Fatalf("last label = %q", got)
	}
}

func TestAddRangeBin(t *testing.T) {
	r := taxRelation(t)
	if err := r.AddRangeBin("sales_bin", "sales", 3); err != nil {
		t.Fatal(err)
	}
	d := r.DimIndex("sales_bin")
	if d < 0 || d < r.NumBaseDims() {
		t.Fatalf("sales_bin not a derived dimension (idx %d, base %d)", d, r.NumBaseDims())
	}
	edges, ok := rangeBinEdges(r, "sales_bin")
	if !ok {
		t.Fatal("no edges recorded")
	}
	// Every row's label matches its measure's bin.
	m := r.MeasureIndex("sales")
	for row := 0; row < r.NumRows(); row++ {
		want := BinLabel(edges, AssignBin(edges, r.MeasureValue(m, row)))
		if got := r.DimValue(d, row); got != want {
			t.Fatalf("row %d label %q, want %q", row, got, want)
		}
	}
	// Collisions and bad bin counts are rejected.
	if err := r.AddRangeBin("state", "sales", 3); err == nil {
		t.Fatal("column collision accepted")
	}
	if err := r.AddRangeBin("b2", "sales", 1); err == nil {
		t.Fatal("bins=1 accepted")
	}
	if err := r.AddRangeBin("b2", "nope", 3); err == nil {
		t.Fatal("unknown measure accepted")
	}
}

func FuzzRangeBinEdges(f *testing.F) {
	f.Add(int64(1), uint8(100), uint8(8))
	f.Add(int64(2), uint8(3), uint8(2))
	f.Add(int64(3), uint8(255), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, n, binsRaw uint8) {
		bins := 2 + int(binsRaw)%15
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, int(n))
		for i := range vals {
			switch rng.Intn(10) {
			case 0:
				vals[i] = math.NaN()
			case 1:
				vals[i] = math.Inf(1 - 2*rng.Intn(2))
			case 2, 3, 4:
				vals[i] = float64(rng.Intn(4)) // duplicate-heavy
			default:
				vals[i] = rng.NormFloat64() * 1e3
			}
		}
		edges := EquiDepthEdges(vals, bins)
		checkEdges(t, vals, bins, edges)
		// Determinism: same input, same edges.
		again := EquiDepthEdges(vals, bins)
		if len(again) != len(edges) {
			t.Fatalf("non-deterministic edge count %d vs %d", len(again), len(edges))
		}
		for i := range edges {
			if edges[i] != again[i] {
				t.Fatalf("non-deterministic edge %d", i)
			}
		}
	})
}
