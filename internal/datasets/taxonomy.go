package datasets

import (
	"sync"

	"repro/internal/relation"
	"repro/internal/synth"
)

// The taxonomy dataset is the small deterministic variant of the synth
// taxonomy scenario (6 categories × 4 subcategories × 4 leaves, 64
// points): big enough that the drill-down DAG has real depth and the
// equi-depth price bins split meaningfully, small enough for the golden
// corpus. The full-size scenario (~50k leaves) stays behind
// cmd/datagen -scenario taxonomy and the hierarchy benchmark.

var (
	taxonomyOnce sync.Once
	taxonomyRel  *relation.Relation
)

func buildTaxonomy() {
	d, err := synth.Taxonomy(synth.TaxonomyParams{
		Cats: 6, SubcatsPerCat: 4, LeavesPerSubcat: 4,
		N: 64, Drivers: 6, Seed: 7,
	})
	if err != nil {
		panic("datasets: taxonomy generate: " + err.Error())
	}
	if err := d.Rel.DeclareHierarchy("cat>subcat>leaf", synth.TaxonomyLevels()); err != nil {
		panic("datasets: taxonomy hierarchy: " + err.Error())
	}
	if err := d.Rel.AddRangeBin("price_bin", "price", 4); err != nil {
		panic("datasets: taxonomy price_bin: " + err.Error())
	}
	taxonomyRel = d.Rel
}

// Taxonomy returns the hierarchical drill-down dataset: SUM(sales)
// explained by the three taxonomy levels plus the equi-depth price bin,
// order ≤ 2 (a taxonomy level optionally combined with a price bin —
// two levels of the taxonomy never combine).
func Taxonomy() *Dataset {
	taxonomyOnce.Do(buildTaxonomy)
	return &Dataset{
		Name:      "taxonomy",
		Rel:       taxonomyRel,
		Measure:   "sales",
		Agg:       relation.Sum,
		ExplainBy: []string{"cat", "subcat", "leaf", "price_bin"},
		MaxOrder:  2,
	}
}
