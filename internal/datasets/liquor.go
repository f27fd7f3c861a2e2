package datasets

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/relation"
)

// liquorBV lists bottle volumes (ml) with sampling weights.
var liquorBV = []struct {
	v string
	w float64
}{
	{"200", 0.04}, {"375", 0.12}, {"500", 0.06}, {"750", 0.34},
	{"1000", 0.14}, {"1500", 0.05}, {"1750", 0.25},
}

// liquorPack lists bottles-per-pack values with sampling weights.
var liquorPack = []struct {
	v string
	w float64
}{
	{"1", 0.08}, {"2", 0.04}, {"6", 0.30}, {"12", 0.38}, {"24", 0.11}, {"48", 0.05},
}

// liquorCategories lists 24 category names, roughly Iowa's taxonomy.
var liquorCategories = []string{
	"American Vodkas", "American Flavored Vodka", "Canadian Whiskies",
	"Straight Bourbon Whiskies", "Spiced Rum", "Whiskey Liqueur",
	"Imported Vodkas", "Blended Whiskies", "Tennessee Whiskies",
	"American Brandies", "Cream Liqueurs", "100% Agave Tequila",
	"Mixto Tequila", "American Dry Gins", "Imported Brandies",
	"Scotch Whiskies", "White Rum", "Gold Rum", "Cocktails/RTD",
	"Irish Whiskies", "Imported Dry Gins", "Triple Sec",
	"American Schnapps", "Peppermint Schnapps",
}

// liquorVendors lists 40 vendor names.
var liquorVendors = []string{
	"Diageo Americas", "Sazerac Company", "Jim Beam Brands",
	"Heaven Hill Brands", "Luxco", "Pernod Ricard USA",
	"Bacardi USA", "Fifth Generation", "Constellation Brands",
	"Brown-Forman Corp", "E & J Gallo Winery", "Proximo Spirits",
	"Campari America", "Phillips Beverage", "McCormick Distilling",
	"Moet Hennessy USA", "William Grant & Sons", "Infinium Spirits",
	"MHW Ltd", "Prestige Beverage", "Stoli Group", "Edrington Americas",
	"Remy Cointreau USA", "Disaronno International", "Mast-Jaegermeister",
	"Beam Suntory", "Wilson Daniels", "Duggan's Distillers",
	"Palm Bay International", "Shaw Ross International", "Hood River",
	"Laird & Company", "Niche Import Co", "Park Street Imports",
	"Patron Spirits", "Sovereign Brands", "Old Elk Distillery",
	"Ole Smoky Distillery", "Western Spirits", "Yahara Bay Distillers",
}

// liquorDayOf maps a 2020 calendar date onto the 128-point series index
// (evenly spaced reporting days between 2020-01-02 and 2020-06-30).
func liquorDayOf(month, day int) int {
	start := time.Date(2020, 1, 2, 0, 0, 0, 0, time.UTC)
	end := time.Date(2020, 6, 30, 0, 0, 0, 0, time.UTC)
	d := time.Date(2020, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	frac := d.Sub(start).Hours() / end.Sub(start).Hours()
	idx := int(frac*127 + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx > 127 {
		idx = 127
	}
	return idx
}

// liquorMultiplier returns the demand multiplier for a product with the
// given attributes at series index d, encoding the Table 5 narrative:
// post-holiday dip of P=12/P=6, the pandemic shift to large packs
// (P=12/24/48), the BV=1000 collapse when Iowa closed bars on ~3/17 and
// its recovery after the late-April reopening, and the BV=1750&P=6 /
// BV=750&P=12 stock-up surges.
func liquorMultiplier(bv, pack string, d int) float64 {
	f := float64(d)
	jan20 := float64(liquorDayOf(1, 20))
	mar6 := float64(liquorDayOf(3, 6))
	mar31 := float64(liquorDayOf(3, 31))
	apr21 := float64(liquorDayOf(4, 21))
	may8 := float64(liquorDayOf(5, 8))
	jun10 := float64(liquorDayOf(6, 10))
	end := 127.0

	m := 1.0
	switch pack {
	case "12":
		m *= lerpSeq(f, []float64{0, jan20, mar6, mar31, apr21, may8, jun10, end},
			[]float64{1.35, 0.95, 1.30, 1.32, 1.62, 1.60, 1.50, 1.78})
	case "6":
		m *= lerpSeq(f, []float64{0, jan20, mar6, apr21, may8, end},
			[]float64{1.20, 0.92, 1.12, 1.12, 1.30, 1.30})
	case "48":
		m *= lerpSeq(f, []float64{0, jan20, mar6, end},
			[]float64{1.00, 1.00, 1.55, 1.55})
	case "24":
		m *= lerpSeq(f, []float64{0, mar31, apr21, jun10, end},
			[]float64{1.00, 1.00, 1.28, 1.28, 1.52})
	}
	switch bv {
	case "1000":
		// Bar-channel volume: collapses with the 3/17 closure order,
		// recovers with the late-April reopening.
		m *= lerpSeq(f, []float64{0, mar6, mar31, may8, jun10, end},
			[]float64{1.00, 1.00, 0.22, 0.25, 1.15, 1.15})
	case "375":
		if pack == "24" {
			m *= lerpSeq(f, []float64{0, jan20, end}, []float64{1.25, 0.82, 0.82})
		}
	}
	if bv == "1750" && pack == "6" {
		m *= lerpSeq(f, []float64{0, mar6, mar31, apr21, may8, jun10, end},
			[]float64{1.00, 1.00, 1.55, 1.18, 1.18, 0.92, 1.30})
	}
	if bv == "750" && pack == "12" {
		m *= lerpSeq(f, []float64{0, mar6, mar31, may8, jun10, end},
			[]float64{1.00, 1.00, 1.42, 1.42, 1.12, 1.12})
	}
	if bv == "1000" && pack == "12" {
		m *= lerpSeq(f, []float64{0, apr21, may8, end},
			[]float64{1.00, 1.00, 1.65, 1.65})
	}
	if bv == "1750" && pack == "12" {
		m *= lerpSeq(f, []float64{0, apr21, may8, end},
			[]float64{1.00, 1.00, 0.72, 0.72})
	}
	return m
}

// lerpSeq piecewise-linearly interpolates values at the given knots.
func lerpSeq(x float64, knots, values []float64) float64 {
	if x <= knots[0] {
		return values[0]
	}
	for i := 1; i < len(knots); i++ {
		if x <= knots[i] {
			span := knots[i] - knots[i-1]
			if span == 0 {
				return values[i]
			}
			frac := (x - knots[i-1]) / span
			return values[i-1] + frac*(values[i]-values[i-1])
		}
	}
	return values[len(values)-1]
}

// Liquor generates the simulated Iowa liquor-sales dataset: one row per
// (date, product) with the day's Bottles Sold, over 128 reporting days
// from 2020-01-02 to 2020-06-30, with explain-by attributes Bottle Volume
// (BV), Pack (P), Category Name (CN), and Vendor Name (VN). Roughly 2400
// distinct products give a candidate count in the Table 6 ballpark
// (ε ≈ 8200 at order ≤ 3), most of which the support filter prunes.
func Liquor() *Dataset {
	liquorOnce.Do(buildLiquor)
	return &Dataset{
		Name:         "liquor",
		Rel:          liquorRel,
		Measure:      "Bottles Sold",
		Agg:          relation.Sum,
		ExplainBy:    []string{"Bottle Volume (ml)", "Pack", "Category Name", "Vendor Name"},
		MaxOrder:     3,
		SmoothWindow: 5,
	}
}

var (
	liquorOnce sync.Once
	liquorRel  *relation.Relation
)

// buildLiquor materializes the relation once (the generator is
// deterministic).
func buildLiquor() {
	rng := rand.New(rand.NewSource(20200630))
	const days = 128
	const products = 3200
	labels := spacedDateLabels(
		time.Date(2020, 1, 2, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 6, 30, 0, 0, 0, 0, time.UTC),
		days)

	pick := func(options []struct {
		v string
		w float64
	}) string {
		r := rng.Float64()
		var acc float64
		for _, o := range options {
			acc += o.w
			if r <= acc {
				return o.v
			}
		}
		return options[len(options)-1].v
	}
	zipfPick := func(names []string) string {
		// Skewed categorical draw: a few heads dominate, like real
		// category/vendor distributions.
		r := rng.Float64()
		idx := int(float64(len(names)) * r * r)
		if idx >= len(names) {
			idx = len(names) - 1
		}
		return names[idx]
	}

	type product struct {
		bv, pack, cat, vendor string
		base                  float64
	}
	seen := make(map[string]bool)
	var prods []product
	for len(prods) < products {
		p := product{
			bv:     pick(liquorBV),
			pack:   pick(liquorPack),
			cat:    zipfPick(liquorCategories),
			vendor: zipfPick(liquorVendors),
		}
		key := p.bv + "|" + p.pack + "|" + p.cat + "|" + p.vendor
		if seen[key] {
			continue
		}
		seen[key] = true
		// Base daily volume: heavy-tailed so the filter prunes most
		// products, as Table 6's filtered ε shows.
		u := rng.Float64()
		p.base = 1.5 + 2000*u*u*u*u*u*u*u*u
		prods = append(prods, p)
	}

	b := relation.NewBuilder("liquor", "date",
		[]string{"Bottle Volume (ml)", "Pack", "Category Name", "Vendor Name"},
		[]string{"Bottles Sold"})
	b.SetTimeOrder(labels)
	for d := 0; d < days; d++ {
		for _, p := range prods {
			q := p.base * liquorMultiplier(p.bv, p.pack, d) * jitter(rng, 0.15)
			// Weekend purchase bump, a realistic weekly texture.
			if wd := d % 6; wd == 4 || wd == 5 {
				q *= 1.2
			}
			qty := float64(int(q))
			if qty <= 0 {
				continue
			}
			if err := b.Append(labels[d],
				[]string{p.bv, p.pack, p.cat, p.vendor},
				[]float64{qty}); err != nil {
				panic("datasets: liquor append: " + err.Error())
			}
		}
	}
	rel, err := b.Finish()
	if err != nil {
		panic("datasets: liquor finish: " + err.Error())
	}
	liquorRel = rel
}
