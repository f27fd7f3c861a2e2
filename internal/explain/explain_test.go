package explain

import (
	"math"
	"strings"
	"testing"

	"repro/internal/relation"
)

// buildCovidMini builds a 3-state covid-style relation over 4 days with a
// known structure: NY drives the early increase, CA the late one.
func buildCovidMini(t *testing.T) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("covid", "date", []string{"state", "region"}, []string{"cases"})
	type row struct {
		date, state, region string
		cases               float64
	}
	rows := []row{
		{"d1", "NY", "east", 0}, {"d1", "CA", "west", 0}, {"d1", "WA", "west", 0},
		{"d2", "NY", "east", 100}, {"d2", "CA", "west", 5}, {"d2", "WA", "west", 10},
		{"d3", "NY", "east", 120}, {"d3", "CA", "west", 50}, {"d3", "WA", "west", 12},
		{"d4", "NY", "east", 125}, {"d4", "CA", "west", 200}, {"d4", "WA", "west", 15},
	}
	for _, r := range rows {
		if err := b.Append(r.date, []string{r.state, r.region}, []float64{r.cases}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	rel, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return rel
}

func newUniverse(t *testing.T, r *relation.Relation, cfg Config) *Universe {
	t.Helper()
	u, err := NewUniverse(r, cfg)
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	return u
}

func TestEnumerationSingleAttr(t *testing.T) {
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state"}})
	if got, want := u.NumCandidates(), 3; got != want {
		t.Fatalf("NumCandidates = %d, want %d (one per state)", got, want)
	}
	if got, want := u.NumTimestamps(), 4; got != want {
		t.Fatalf("NumTimestamps = %d, want %d", got, want)
	}
	seen := map[string]bool{}
	for id := 0; id < u.NumCandidates(); id++ {
		seen[describe(u, id)] = true
	}
	for _, want := range []string{"state=NY", "state=CA", "state=WA"} {
		if !seen[want] {
			t.Errorf("missing candidate %q; have %v", want, seen)
		}
	}
}

func TestEnumerationConjunctions(t *testing.T) {
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum})
	// Dimensions default to all: state (3 values), region (2 values), and
	// the state&region pairs that occur (3: NY-east, CA-west, WA-west).
	if got, want := u.NumCandidates(), 3+2+3; got != want {
		t.Fatalf("NumCandidates = %d, want %d", got, want)
	}
	// Only combinations that occur in the data are enumerated.
	conj, err := relation.NewConjunction(r, map[string]string{"state": "NY", "region": "east"})
	if err != nil {
		t.Fatalf("NewConjunction: %v", err)
	}
	if _, ok := u.Lookup(conj); !ok {
		t.Error("NY&east should be a candidate")
	}
	// NY&west never occurs, so NewConjunction succeeds (both values exist)
	// but Lookup must miss.
	nyID, _ := r.Dim(r.DimIndex("state")).ID("NY")
	westID, _ := r.Dim(r.DimIndex("region")).ID("west")
	miss := relation.Conjunction{
		{Dim: r.DimIndex("state"), Value: nyID},
		{Dim: r.DimIndex("region"), Value: westID},
	}
	if _, ok := u.Lookup(miss); ok {
		t.Error("NY&west never occurs and must not be a candidate")
	}
}

func TestEnumerationMaxOrder(t *testing.T) {
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, MaxOrder: 1})
	if got, want := u.NumCandidates(), 5; got != want {
		t.Fatalf("order-1 NumCandidates = %d, want %d", got, want)
	}
	if got := u.MaxOrder(); got != 1 {
		t.Errorf("MaxOrder = %d, want 1", got)
	}
}

func TestNewUniverseErrors(t *testing.T) {
	r := buildCovidMini(t)
	if _, err := NewUniverse(r, Config{Measure: "nope", Agg: relation.Sum}); err == nil {
		t.Error("unknown measure: want error")
	}
	if _, err := NewUniverse(r, Config{Measure: "cases", ExplainBy: []string{"nope"}}); err == nil {
		t.Error("unknown explain-by: want error")
	}
	if _, err := NewUniverse(r, Config{Measure: "cases", ExplainBy: []string{"state", "state"}}); err == nil {
		t.Error("duplicate explain-by: want error")
	}
}

func TestChildrenAdjacency(t *testing.T) {
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum})
	stateDim := r.DimIndex("state")
	regionDim := r.DimIndex("region")

	// Root's children along state are the three order-1 state candidates.
	rootStates := u.ChildrenOf(-1, stateDim)
	if len(rootStates) != 3 {
		t.Fatalf("root children on state = %d, want 3", len(rootStates))
	}
	// Children of region=west along state are CA and WA.
	westConj, _ := relation.NewConjunction(r, map[string]string{"region": "west"})
	westID, ok := u.Lookup(westConj)
	if !ok {
		t.Fatal("region=west is not a candidate")
	}
	kids := u.ChildrenOf(westID, stateDim)
	if len(kids) != 2 {
		t.Fatalf("west children on state = %d, want 2", len(kids))
	}
	for _, id := range kids {
		desc := describe(u, int(id))
		if !strings.Contains(desc, "region=west") {
			t.Errorf("child %q does not extend region=west", desc)
		}
	}
	// A leaf (order = number of dims) has no children.
	nyEast, _ := relation.NewConjunction(r, map[string]string{"state": "NY", "region": "east"})
	nyEastID, ok := u.Lookup(nyEast)
	if !ok {
		t.Fatal("state=NY & region=east is not a candidate")
	}
	if got := u.ChildrenOf(nyEastID, regionDim); got != nil {
		t.Errorf("leaf children = %v, want nil", got)
	}
}

func TestGammaAbsoluteChangeSum(t *testing.T) {
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state"}})
	ny := lookup(t, u, r, map[string]string{"state": "NY"})
	ca := lookup(t, u, r, map[string]string{"state": "CA"})

	// Over [d1,d2]: overall +115; removing NY leaves +15, so γ(NY)=100.
	g, eff := u.Gamma(ny, 0, 1)
	if g != 100 || eff != Increase {
		t.Errorf("γ(NY,[d1,d2]) = (%g,%v), want (100,+)", g, eff)
	}
	// Over [d3,d4]: CA contributes +150.
	g, eff = u.Gamma(ca, 2, 3)
	if g != 150 || eff != Increase {
		t.Errorf("γ(CA,[d3,d4]) = (%g,%v), want (150,+)", g, eff)
	}
	// For SUM, γ(E) must equal |Δ ts(σ_E R)| on any segment.
	vals := u.CandidateValues(ny)
	for c := 0; c < len(vals); c++ {
		for tt := c + 1; tt < len(vals); tt++ {
			g, _ := u.Gamma(ny, c, tt)
			want := math.Abs(vals[tt] - vals[c])
			if math.Abs(g-want) > 1e-9 {
				t.Fatalf("γ(NY,[%d,%d]) = %g, want %g", c, tt, g, want)
			}
		}
	}
}

func TestGammaDecreaseEffect(t *testing.T) {
	b := relation.NewBuilder("x", "d", []string{"s"}, []string{"m"})
	_ = b.Append("1", []string{"a"}, []float64{10})
	_ = b.Append("1", []string{"b"}, []float64{10})
	_ = b.Append("2", []string{"a"}, []float64{2}) // a drops by 8
	_ = b.Append("2", []string{"b"}, []float64{30})
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(t, r, Config{Measure: "m", Agg: relation.Sum})
	a := lookup(t, u, r, map[string]string{"s": "a"})
	g, eff := u.Gamma(a, 0, 1)
	if g != 8 || eff != Decrease {
		t.Errorf("γ(a) = (%g,%v), want (8,-)", g, eff)
	}
}

func TestGammaAvgAggregate(t *testing.T) {
	// AVG is decomposable but not linear, so exercise the sum/count path.
	b := relation.NewBuilder("x", "d", []string{"s"}, []string{"m"})
	_ = b.Append("1", []string{"a"}, []float64{10})
	_ = b.Append("1", []string{"b"}, []float64{20})
	_ = b.Append("2", []string{"a"}, []float64{40})
	_ = b.Append("2", []string{"b"}, []float64{20})
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(t, r, Config{Measure: "m", Agg: relation.Avg})
	a := lookup(t, u, r, map[string]string{"s": "a"})
	// AVG goes 15 -> 30 (+15). Removing slice a leaves AVG 20 -> 20 (0),
	// so γ(a) = 15 and the effect is an increase.
	g, eff := u.Gamma(a, 0, 1)
	if math.Abs(g-15) > 1e-9 || eff != Increase {
		t.Errorf("γ(a) under AVG = (%g,%v), want (15,+)", g, eff)
	}
}

func TestEffectString(t *testing.T) {
	if Increase.String() != "+" || Decrease.String() != "-" || Neutral.String() != "0" {
		t.Errorf("Effect strings = %q %q %q", Increase, Decrease, Neutral)
	}
}

func TestFilterLowSupport(t *testing.T) {
	b := relation.NewBuilder("x", "d", []string{"s"}, []string{"m"})
	for _, day := range []string{"1", "2", "3"} {
		_ = b.Append(day, []string{"big"}, []float64{1000})
		_ = b.Append(day, []string{"tiny"}, []float64{0.1})
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(t, r, Config{Measure: "m", Agg: relation.Sum})
	all := u.AllCandidateIDs()
	if len(all) != 2 {
		t.Fatalf("AllCandidateIDs = %d, want 2", len(all))
	}
	kept := u.FilterLowSupport(0.001)
	if len(kept) != 1 {
		t.Fatalf("filtered = %d candidates, want 1", len(kept))
	}
	if got := describe(u, kept[0]); got != "s=big" {
		t.Errorf("survivor = %q, want s=big", got)
	}
	// ratio 0 keeps everything.
	if got := u.FilterLowSupport(0); len(got) != 2 {
		t.Errorf("ratio 0 kept %d, want 2", len(got))
	}
}

// Property: for SUM, the γ of all order-1 candidates along one attribute
// decomposes the overall change: Σ_E signed-γ(E) = overall Δ.
func TestGammaDecompositionProperty(t *testing.T) {
	r := buildCovidMini(t)
	u := newUniverse(t, r, Config{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state"}})
	tot := u.TotalValues()
	for c := 0; c < len(tot); c++ {
		for tt := c + 1; tt < len(tot); tt++ {
			var signed float64
			for id := 0; id < u.NumCandidates(); id++ {
				g, eff := u.Gamma(id, c, tt)
				signed += g * float64(eff)
			}
			want := tot[tt] - tot[c]
			if math.Abs(signed-want) > 1e-9 {
				t.Errorf("segment [%d,%d]: Σ signed γ = %g, want %g", c, tt, signed, want)
			}
		}
	}
}

func lookup(t *testing.T, u *Universe, r *relation.Relation, pairs map[string]string) int {
	t.Helper()
	conj, err := relation.NewConjunction(r, pairs)
	if err != nil {
		t.Fatalf("NewConjunction(%v): %v", pairs, err)
	}
	id, ok := u.Lookup(conj)
	if !ok {
		t.Fatalf("Lookup(%v): not a candidate", pairs)
	}
	return id
}

// describe renders candidate id's conjunction with names resolved.
func describe(u *Universe, id int) string {
	return u.cands[id].Conj.String(u.rel)
}
