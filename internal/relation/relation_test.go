package relation

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// buildSales builds a small liquor-style relation used across tests:
// 3 days x 2 states x 2 categories, measure = units.
func buildSales(t *testing.T) *Relation {
	t.Helper()
	b := NewBuilder("sales", "date", []string{"state", "category"}, []string{"units"})
	rows := []struct {
		date, state, cat string
		units            float64
	}{
		{"2020-01-01", "NY", "beer", 10},
		{"2020-01-01", "NY", "wine", 5},
		{"2020-01-01", "CA", "beer", 7},
		{"2020-01-02", "NY", "beer", 12},
		{"2020-01-02", "CA", "wine", 3},
		{"2020-01-03", "CA", "beer", 9},
		{"2020-01-03", "CA", "wine", 4},
		{"2020-01-03", "NY", "wine", 6},
	}
	for _, r := range rows {
		if err := b.Append(r.date, []string{r.state, r.cat}, []float64{r.units}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	rel, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return rel
}

func TestBuilderBasics(t *testing.T) {
	r := buildSales(t)
	if got, want := r.NumRows(), 8; got != want {
		t.Errorf("NumRows = %d, want %d", got, want)
	}
	if got, want := r.NumTimestamps(), 3; got != want {
		t.Errorf("NumTimestamps = %d, want %d", got, want)
	}
	if got, want := r.TimeLabel(0), "2020-01-01"; got != want {
		t.Errorf("TimeLabel(0) = %q, want %q", got, want)
	}
	if got, want := r.TimeLabel(2), "2020-01-03"; got != want {
		t.Errorf("TimeLabel(2) = %q, want %q", got, want)
	}
	if got := r.DimIndex("state"); got != 0 {
		t.Errorf("DimIndex(state) = %d, want 0", got)
	}
	if got := r.DimIndex("category"); got != 1 {
		t.Errorf("DimIndex(category) = %d, want 1", got)
	}
	if got := r.DimIndex("nope"); got != -1 {
		t.Errorf("DimIndex(nope) = %d, want -1", got)
	}
	if got := r.MeasureIndex("units"); got != 0 {
		t.Errorf("MeasureIndex(units) = %d, want 0", got)
	}
	if got := r.MeasureIndex("nope"); got != -1 {
		t.Errorf("MeasureIndex(nope) = %d, want -1", got)
	}
	if got, want := r.Dim(0).Cardinality(), 2; got != want {
		t.Errorf("state cardinality = %d, want %d", got, want)
	}
	if got, want := r.DimValue(0, 0), "NY"; got != want {
		t.Errorf("DimValue(0,0) = %q, want %q", got, want)
	}
}

func TestBuilderRowArityErrors(t *testing.T) {
	b := NewBuilder("x", "t", []string{"a"}, []string{"m"})
	if err := b.Append("1", []string{"v", "extra"}, []float64{1}); err == nil {
		t.Error("Append with wrong dim arity: want error, got nil")
	}
	if err := b.Append("1", []string{"v"}, []float64{1, 2}); err == nil {
		t.Error("Append with wrong measure arity: want error, got nil")
	}
}

func TestBuilderFinishTwice(t *testing.T) {
	b := NewBuilder("x", "t", nil, nil)
	if _, err := b.Finish(); err != nil {
		t.Fatalf("first Finish: %v", err)
	}
	if _, err := b.Finish(); err == nil {
		t.Error("second Finish: want error, got nil")
	}
	if err := b.Append("1", nil, nil); err == nil {
		t.Error("Append after Finish: want error, got nil")
	}
}

func TestBuilderDuplicateNames(t *testing.T) {
	b := NewBuilder("x", "t", []string{"a", "a"}, nil)
	_ = b.Append("1", []string{"u", "v"}, nil)
	if _, err := b.Finish(); err == nil {
		t.Error("duplicate dimension name: want error, got nil")
	}
	b2 := NewBuilder("x", "t", nil, []string{"m", "m"})
	_ = b2.Append("1", nil, []float64{1, 2})
	if _, err := b2.Finish(); err == nil {
		t.Error("duplicate measure name: want error, got nil")
	}
}

func TestExplicitTimeOrder(t *testing.T) {
	b := NewBuilder("x", "week", nil, []string{"m"})
	b.SetTimeOrder([]string{"w9", "w10", "w11"})
	for _, w := range []string{"w10", "w9", "w11"} {
		if err := b.Append(w, nil, []float64{1}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := r.TimeLabels(); !reflect.DeepEqual(got, []string{"w9", "w10", "w11"}) {
		t.Errorf("TimeLabels = %v, want explicit order", got)
	}
}

func TestExplicitTimeOrderUnknownLabel(t *testing.T) {
	b := NewBuilder("x", "week", nil, []string{"m"})
	b.SetTimeOrder([]string{"w1"})
	_ = b.Append("w2", nil, []float64{1})
	if _, err := b.Finish(); err == nil {
		t.Error("unknown time label: want error, got nil")
	}
}

func TestExplicitTimeOrderDuplicateLabel(t *testing.T) {
	b := NewBuilder("x", "week", nil, []string{"m"})
	b.SetTimeOrder([]string{"w1", "w1"})
	_ = b.Append("w1", nil, []float64{1})
	if _, err := b.Finish(); err == nil {
		t.Error("duplicate time label in order: want error, got nil")
	}
}

func TestAggregateSeries(t *testing.T) {
	r := buildSales(t)
	sc := r.AggregateSeries(0)
	wantSum := []float64{22, 15, 19}
	wantCnt := []float64{3, 2, 3}
	for i := range sc {
		if sc[i].Sum != wantSum[i] || sc[i].Count != wantCnt[i] {
			t.Errorf("day %d: got (%.0f,%.0f), want (%.0f,%.0f)",
				i, sc[i].Sum, sc[i].Count, wantSum[i], wantCnt[i])
		}
	}
	vals := Values(Sum, sc)
	if !reflect.DeepEqual(vals, wantSum) {
		t.Errorf("Values(Sum) = %v, want %v", vals, wantSum)
	}
	cnt := Values(Count, sc)
	if !reflect.DeepEqual(cnt, wantCnt) {
		t.Errorf("Values(Count) = %v, want %v", cnt, wantCnt)
	}
	avg := Values(Avg, sc)
	for i := range avg {
		want := wantSum[i] / wantCnt[i]
		if avg[i] != want {
			t.Errorf("Values(Avg)[%d] = %g, want %g", i, avg[i], want)
		}
	}
}

func TestAggregateSeriesWhere(t *testing.T) {
	r := buildSales(t)
	c, err := NewConjunction(r, map[string]string{"state": "NY"})
	if err != nil {
		t.Fatalf("NewConjunction: %v", err)
	}
	sc := r.AggregateSeriesWhere(0, c)
	wantSum := []float64{15, 12, 6}
	for i := range sc {
		if sc[i].Sum != wantSum[i] {
			t.Errorf("NY day %d sum = %g, want %g", i, sc[i].Sum, wantSum[i])
		}
	}
}

func TestAvgOfEmptySliceIsZero(t *testing.T) {
	if got := Avg.Eval(0, 0); got != 0 {
		t.Errorf("Avg.Eval(0,0) = %g, want 0", got)
	}
}

func TestAggFuncStringAndParse(t *testing.T) {
	for _, f := range []AggFunc{Sum, Count, Avg} {
		parsed, err := ParseAggFunc(f.String())
		if err != nil {
			t.Fatalf("ParseAggFunc(%q): %v", f.String(), err)
		}
		if parsed != f {
			t.Errorf("round trip %v -> %v", f, parsed)
		}
	}
	if _, err := ParseAggFunc("MEDIAN"); err == nil {
		t.Error("ParseAggFunc(MEDIAN): want error, got nil")
	}
	if got := AggFunc(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown AggFunc String = %q", got)
	}
}

func TestConjunctionBasics(t *testing.T) {
	r := buildSales(t)
	c, err := NewConjunction(r, map[string]string{"category": "beer", "state": "NY"})
	if err != nil {
		t.Fatalf("NewConjunction: %v", err)
	}
	if got, want := c.Order(), 2; got != want {
		t.Errorf("Order = %d, want %d", got, want)
	}
	// Canonical order sorts by dim index: state (0) before category (1).
	if c[0].Dim != 0 || c[1].Dim != 1 {
		t.Errorf("conjunction not canonical: %+v", c)
	}
	if got, want := c.String(r), "state=NY & category=beer"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if !c.Matches(r, 0) { // row 0 is NY beer
		t.Error("Matches(row 0) = false, want true")
	}
	if c.Matches(r, 1) { // row 1 is NY wine
		t.Error("Matches(row 1) = true, want false")
	}
	if !c.HasDim(0) || !c.HasDim(1) {
		t.Error("HasDim: want both dims constrained")
	}
	if v, ok := c.ValueFor(0); !ok || r.Dim(0).Value(v) != "NY" {
		t.Errorf("ValueFor(0) = (%d,%v)", v, ok)
	}
	if _, ok := Conjunction(nil).ValueFor(0); ok {
		t.Error("empty conjunction ValueFor: want ok=false")
	}
}

func TestConjunctionErrors(t *testing.T) {
	r := buildSales(t)
	if _, err := NewConjunction(r, map[string]string{"nope": "x"}); err == nil {
		t.Error("unknown dimension: want error")
	}
	if _, err := NewConjunction(r, map[string]string{"state": "TX"}); err == nil {
		t.Error("unknown value: want error")
	}
}

func TestConjunctionExtendWithout(t *testing.T) {
	r := buildSales(t)
	base, _ := NewConjunction(r, map[string]string{"state": "NY"})
	id, _ := r.Dim(1).ID("wine")
	ext := base.Extend(Pred{Dim: 1, Value: id})
	if got, want := ext.String(r), "state=NY & category=wine"; got != want {
		t.Errorf("Extend = %q, want %q", got, want)
	}
	// Extend must not mutate the receiver.
	if got, want := base.String(r), "state=NY"; got != want {
		t.Errorf("base mutated by Extend: %q", got)
	}
	back := ext.Without(1)
	if got, want := back.String(r), "state=NY"; got != want {
		t.Errorf("Without = %q, want %q", got, want)
	}
	same := ext.Without(99)
	if got, want := same.Key(), ext.Key(); got != want {
		t.Errorf("Without(unconstrained) = %q, want %q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Extend on constrained dim: want panic")
		}
	}()
	_ = base.Extend(Pred{Dim: 0, Value: 0})
}

func TestConjunctionOverlaps(t *testing.T) {
	r := buildSales(t)
	ny, _ := NewConjunction(r, map[string]string{"state": "NY"})
	ca, _ := NewConjunction(r, map[string]string{"state": "CA"})
	beer, _ := NewConjunction(r, map[string]string{"category": "beer"})
	nyBeer, _ := NewConjunction(r, map[string]string{"state": "NY", "category": "beer"})

	cases := []struct {
		a, b Conjunction
		want bool
	}{
		{ny, ca, false},        // same dim, different value
		{ny, beer, true},       // different dims can intersect
		{ny, nyBeer, true},     // ancestor-descendant overlap
		{ca, nyBeer, false},    // disagree on state
		{nil, ny, true},        // root overlaps everything
		{nyBeer, nyBeer, true}, // self overlap
	}
	for i, tc := range cases {
		if got := tc.a.Overlaps(tc.b); got != tc.want {
			t.Errorf("case %d: Overlaps = %v, want %v", i, got, tc.want)
		}
		if got := tc.b.Overlaps(tc.a); got != tc.want {
			t.Errorf("case %d (sym): Overlaps = %v, want %v", i, got, tc.want)
		}
	}
}

func TestFilter(t *testing.T) {
	r := buildSales(t)
	c, _ := NewConjunction(r, map[string]string{"category": "wine"})
	f, err := Filter(r, c)
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if got, want := f.NumRows(), 4; got != want {
		t.Errorf("filtered NumRows = %d, want %d", got, want)
	}
	// Filter must preserve the full time axis even if some timestamps lose
	// all rows.
	if got, want := f.NumTimestamps(), 3; got != want {
		t.Errorf("filtered NumTimestamps = %d, want %d", got, want)
	}
	sc := f.AggregateSeries(0)
	wantSum := []float64{5, 3, 10}
	for i := range sc {
		if sc[i].Sum != wantSum[i] {
			t.Errorf("wine day %d sum = %g, want %g", i, sc[i].Sum, wantSum[i])
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := buildSales(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, CSVSpec{
		Name:     "sales",
		TimeCol:  "date",
		DimCols:  []string{"state", "category"},
		MeasCols: []string{"units"},
	})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.NumRows() != r.NumRows() {
		t.Fatalf("round trip rows = %d, want %d", back.NumRows(), r.NumRows())
	}
	a := Values(Sum, r.AggregateSeries(0))
	b := Values(Sum, back.AggregateSeries(0))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("round trip series = %v, want %v", b, a)
	}
}

func TestReadCSVErrors(t *testing.T) {
	spec := CSVSpec{TimeCol: "t", DimCols: []string{"d"}, MeasCols: []string{"m"}}
	cases := []struct {
		name, data string
	}{
		{"missing time col", "x,d,m\n1,a,2\n"},
		{"missing dim col", "t,x,m\n1,a,2\n"},
		{"missing measure col", "t,d,x\n1,a,2\n"},
		{"bad float", "t,d,m\n1,a,notanumber\n"},
		{"empty input", ""},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.data), spec); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

// Property: filtering by a predicate then aggregating equals
// AggregateSeriesWhere on the original relation.
func TestFilterAggregateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	states := []string{"NY", "CA", "TX"}
	cats := []string{"a", "b"}
	b := NewBuilder("rand", "d", []string{"s", "c"}, []string{"m"})
	for i := 0; i < 300; i++ {
		day := string(rune('0' + rng.Intn(5)))
		if err := b.Append(day,
			[]string{states[rng.Intn(3)], cats[rng.Intn(2)]},
			[]float64{float64(rng.Intn(100))}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for _, s := range states {
		c, err := NewConjunction(r, map[string]string{"s": s})
		if err != nil {
			t.Fatalf("NewConjunction(%s): %v", s, err)
		}
		direct := r.AggregateSeriesWhere(0, c)
		filtered, err := Filter(r, c)
		if err != nil {
			t.Fatalf("Filter: %v", err)
		}
		via := filtered.AggregateSeries(0)
		if !reflect.DeepEqual(direct, via) {
			t.Errorf("state %s: filter+aggregate mismatch", s)
		}
	}
}
