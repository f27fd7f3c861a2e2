package explain

import (
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/synth"
)

// heapAlloc settles the heap and reads HeapAlloc. Two GC cycles run the
// finalizer queue to completion, so freed test fixtures don't pollute
// the delta.
func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestApproxBytesTracksMeasuredHeapGrowth checks the eviction cost model
// against reality on a hierarchical dataset with a derived range-bin
// column — exactly the shape whose level columns, taxonomy adjacency,
// and derived columns the old estimate silently omitted. The estimate
// must land within a band of the measured heap growth of building the
// universe: tight enough to catch a term dropping out again, loose
// enough to absorb allocator slack and map overhead.
func TestApproxBytesTracksMeasuredHeapGrowth(t *testing.T) {
	ds, err := synth.Taxonomy(synth.TaxonomyParams{
		Cats: 12, SubcatsPerCat: 10, LeavesPerSubcat: 10, N: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Rel
	if err := rel.AddRangeBin("price_bin", "price", 16); err != nil {
		t.Fatal(err)
	}

	// The hierarchy's parent maps are part of what the estimate must
	// cover, so they are declared inside the measured window.
	before := heapAlloc()
	if err := rel.DeclareHierarchy("cat>subcat>leaf", synth.TaxonomyLevels()); err != nil {
		t.Fatal(err)
	}
	u, err := NewUniverse(rel, Config{
		Measure: "sales", Agg: relation.Sum,
		ExplainBy: []string{"cat", "subcat", "leaf", "price_bin"},
		MaxOrder:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	measured := heapAlloc() - before
	runtime.KeepAlive(u)

	est := u.ApproxBytes()
	// DerivedBytes counts relation-side state built before the
	// measurement window (the range-bin column); subtract it so the band
	// compares like with like.
	est -= rel.DerivedBytes()
	t.Logf("measured universe heap growth %d bytes, estimate %d (%.2fx)",
		measured, est, float64(est)/float64(measured))
	if measured <= 0 {
		t.Skip("heap measurement swamped by concurrent allocation")
	}
	if est < measured/4 {
		t.Fatalf("ApproxBytes = %d severely underestimates measured growth %d (<25%%): a cost term is missing", est, measured)
	}
	if est > 4*measured {
		t.Fatalf("ApproxBytes = %d severely overestimates measured growth %d (>400%%)", est, measured)
	}
	runtime.KeepAlive(rel)
}
