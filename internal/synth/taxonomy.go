package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// TaxonomyParams controls the taxonomy scenario generator: a relation
// R(T, cat, subcat, leaf, sales, price, weight) whose leaf dimension is
// the bottom of a three-level single-parent taxonomy (cat → subcat →
// leaf, globally unique labels c07 / c07s03 / c07s03l11). A handful of
// driver leaves — concentrated in a few categories — carry
// piecewise-linear trends whose break union is the ground-truth
// segmentation; every other leaf contributes one short spike, so the
// candidate axis holds every level-grouped conjunction (cats + subcats +
// leaves ≈ 52k at the defaults) while the attribution mass sits in a few
// subtrees. That shape is exactly what subtree bound-pruning exploits:
// the best-first walk descends the driver categories and prunes the
// spike-only subtrees by their parents' caps. The extra price and weight
// measures are numeric-range material for equi-depth binning.
type TaxonomyParams struct {
	// Cats, SubcatsPerCat, and LeavesPerSubcat set the taxonomy fan-out
	// (defaults 40, 35, 36 — ~50400 leaves).
	Cats            int
	SubcatsPerCat   int
	LeavesPerSubcat int
	// N is the series length (default 96).
	N int
	// Drivers is the number of trend-carrying leaves (default 6), placed
	// in the first max(1, Cats/16) categories so the mass concentrates.
	Drivers int
	// SpikeBase scales the long-tail spikes (default 5).
	SpikeBase float64
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
}

func (p *TaxonomyParams) setDefaults() {
	if p.Cats <= 0 {
		p.Cats = 40
	}
	if p.SubcatsPerCat <= 0 {
		p.SubcatsPerCat = 35
	}
	if p.LeavesPerSubcat <= 0 {
		p.LeavesPerSubcat = 36
	}
	if p.N <= 0 {
		p.N = 96
	}
	if p.Drivers <= 0 {
		p.Drivers = 6
	}
	if max := p.Cats * p.SubcatsPerCat; p.Drivers > max {
		p.Drivers = max
	}
	if p.SpikeBase <= 0 {
		p.SpikeBase = 5
	}
}

// WithDefaults returns the params with every zero field resolved to the
// generator default, so callers can report the effective configuration.
func (p TaxonomyParams) WithDefaults() TaxonomyParams {
	p.setDefaults()
	return p
}

// TaxonomyLevels is the coarse-to-fine dimension list of the generated
// taxonomy: the levels callers pass to Relation.DeclareHierarchy and
// manifest "hierarchies" entries declare.
func TaxonomyLevels() []string { return []string{"cat", "subcat", "leaf"} }

// TaxonomyDataset is one generated taxonomy scenario dataset.
type TaxonomyDataset struct {
	// Rel is the relation R(T, cat, subcat, leaf, sales, price, weight);
	// the aggregated series is SELECT T, SUM(sales) GROUP BY T.
	Rel *relation.Relation
	// Cuts is the ground-truth segmentation (sorted interior positions)
	// and K its segment count, len(Cuts)+1.
	Cuts []int
	K    int
	// Leaves counts the taxonomy's leaf labels.
	Leaves int
}

// Taxonomy generates one taxonomy scenario dataset. Sales values are all
// non-negative, so the SUM workload is subtree-prunable
// (explain.NewSubtreeBounds accepts it).
func Taxonomy(p TaxonomyParams) (*TaxonomyDataset, error) {
	p.setDefaults()
	minSeg := p.N / 16
	if minSeg < 6 {
		minSeg = 6
	}
	if p.N < 4*minSeg {
		return nil, fmt.Errorf("synth: taxonomy series length %d too short", p.N)
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Ground-truth cuts and per-driver break subsets, the same jittered
	// even-spacing construction the high-cardinality scenario uses.
	nCuts := (p.N - 2*minSeg) / (2 * minSeg)
	if nCuts > 6 {
		nCuts = 6
	}
	if nCuts < 1 {
		nCuts = 1
	}
	span := float64(p.N-2*minSeg) / float64(nCuts)
	cuts := make([]int, nCuts)
	for i := range cuts {
		jitter := (rng.Float64() - 0.5) * span / 2
		cuts[i] = minSeg + int((float64(i)+0.5)*span+jitter)
	}
	perDriver := make([][]int, p.Drivers)
	for d := range perDriver {
		for _, c := range cuts {
			if rng.Float64() < 0.5 {
				perDriver[d] = append(perDriver[d], c)
			}
		}
		if len(perDriver[d]) == 0 {
			perDriver[d] = append(perDriver[d], cuts[rng.Intn(len(cuts))])
		}
	}

	labels := make([]string, p.N)
	for i := range labels {
		labels[i] = fmt.Sprintf("%04d", i)
	}
	b := relation.NewBuilder("taxonomy", "T",
		[]string{"cat", "subcat", "leaf"}, []string{"sales", "price", "weight"})
	b.SetTimeOrder(labels)

	catL := func(c int) string { return fmt.Sprintf("c%02d", c) }
	subL := func(c, s int) string { return fmt.Sprintf("c%02ds%02d", c, s) }
	leafL := func(c, s, l int) string { return fmt.Sprintf("c%02ds%02dl%02d", c, s, l) }
	aux := func() []float64 {
		return []float64{0, 1 + rng.Float64()*199, 0.1 + rng.Float64()*9.9}
	}

	// Drivers: leaf l00 of distinct subcats inside the first few
	// categories, each a full daily series scaled to dominate its
	// segments' attributions.
	nDriverCats := p.Cats / 16
	if nDriverCats < 1 {
		nDriverCats = 1
	}
	driverOf := make(map[[3]int]bool, p.Drivers)
	for d := 0; d < p.Drivers; d++ {
		c := d % nDriverCats
		s := (d / nDriverCats) % p.SubcatsPerCat
		driverOf[[3]int{c, s, 0}] = true
		dims := []string{catL(c), subL(c, s), leafL(c, s, 0)}
		series := pwLinear(rng, p.N, perDriver[d])
		for t := 0; t < p.N; t++ {
			meas := aux()
			meas[0] = series[t] * 1.6
			if err := b.Append(labels[t], dims, meas); err != nil {
				return nil, err
			}
		}
	}

	// Long tail: every non-driver leaf contributes exactly one spike, so
	// every taxonomy label occurs (the hierarchy is total) and the
	// support filter cannot collapse the candidate axis.
	leaves := 0
	for c := 0; c < p.Cats; c++ {
		for s := 0; s < p.SubcatsPerCat; s++ {
			for l := 0; l < p.LeavesPerSubcat; l++ {
				leaves++
				if driverOf[[3]int{c, s, l}] {
					continue
				}
				t := 1 + rng.Intn(p.N-2)
				meas := aux()
				meas[0] = p.SpikeBase * (0.8 + 0.4*rng.Float64())
				dims := []string{catL(c), subL(c, s), leafL(c, s, l)}
				if err := b.Append(labels[t], dims, meas); err != nil {
					return nil, err
				}
			}
		}
	}

	rel, err := b.Finish()
	if err != nil {
		return nil, err
	}
	return &TaxonomyDataset{Rel: rel, Cuts: cuts, K: len(cuts) + 1, Leaves: leaves}, nil
}
