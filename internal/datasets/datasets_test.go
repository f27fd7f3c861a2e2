package datasets

import (
	"math"
	"slices"
	"testing"

	"repro/internal/explain"
	"repro/internal/relation"
)

func universeOf(t *testing.T, d *Dataset) *explain.Universe {
	t.Helper()
	u, err := explain.NewUniverse(d.Rel, explain.Config{
		Measure:   d.Measure,
		Agg:       d.Agg,
		ExplainBy: d.ExplainBy,
		MaxOrder:  d.MaxOrder,
	})
	if err != nil {
		t.Fatalf("NewUniverse(%s): %v", d.Name, err)
	}
	return u
}

func seriesOf(t *testing.T, d *Dataset) []float64 {
	t.Helper()
	m := d.Rel.MeasureIndex(d.Measure)
	if m < 0 {
		t.Fatalf("%s: measure %q missing", d.Name, d.Measure)
	}
	return relation.Values(d.Agg, d.Rel.AggregateSeries(m))
}

func TestCovidShape(t *testing.T) {
	d := CovidTotal()
	if got := d.Rel.NumTimestamps(); got != 345 {
		t.Errorf("n = %d, want 345 (2020-01-22..2020-12-31)", got)
	}
	if got := d.Rel.Dim(0).Cardinality(); got != 58 {
		t.Errorf("states = %d, want 58", got)
	}
	if got := d.Rel.TimeLabel(0); got != "2020-01-22" {
		t.Errorf("first date = %q", got)
	}
	if got := d.Rel.TimeLabel(344); got != "2020-12-31" {
		t.Errorf("last date = %q", got)
	}
	u := universeOf(t, d)
	if got := u.NumCandidates(); got != 58 {
		t.Errorf("ε = %d, want 58 (Table 6)", got)
	}
	if got := len(u.FilterLowSupport(0.001)); got < 50 || got > 58 {
		t.Errorf("filtered ε = %d, want ≈54 (Table 6)", got)
	}
}

func TestCovidTotalsMonotoneAndLarge(t *testing.T) {
	d := CovidTotal()
	vals := seriesOf(t, d)
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("total cases decreased at %d: %g -> %g", i, vals[i-1], vals[i])
		}
	}
	// The US ended 2020 around 2·10⁷ cumulative confirmed cases.
	if last := vals[len(vals)-1]; last < 5e6 || last > 5e7 {
		t.Errorf("final total = %g, want ~2e7", last)
	}
	if vals[0] > 1000 {
		t.Errorf("initial total = %g, want near 0", vals[0])
	}
}

func TestCovidNarrativeDrivers(t *testing.T) {
	d := CovidDaily()
	u := universeOf(t, d)
	daily := func(state string, from, to string) float64 {
		conj, err := relation.NewConjunction(d.Rel, map[string]string{"state": state})
		if err != nil {
			t.Fatalf("conjunction %s: %v", state, err)
		}
		id, ok := u.Lookup(conj)
		if !ok {
			t.Fatalf("state %s not a candidate", state)
		}
		vals := u.CandidateValues(id)
		fromIdx, toIdx := dateIdx(t, d, from), dateIdx(t, d, to)
		var sum float64
		for i := fromIdx; i <= toIdx; i++ {
			sum += vals[i]
		}
		return sum
	}
	// Spring wave: NY ≫ CA.
	if ny, ca := daily("New York", "2020-03-15", "2020-05-01"), daily("California", "2020-03-15", "2020-05-01"); ny < 2*ca {
		t.Errorf("spring: NY=%g should dwarf CA=%g", ny, ca)
	}
	// Summer wave: FL+TX ≫ NY.
	if fl, ny := daily("Florida", "2020-06-15", "2020-08-15"), daily("New York", "2020-06-15", "2020-08-15"); fl < 2*ny {
		t.Errorf("summer: FL=%g should dwarf NY=%g", fl, ny)
	}
	// Winter: CA leads everyone.
	caw := daily("California", "2020-11-27", "2020-12-31")
	for _, s := range []string{"New York", "Texas", "Florida", "Illinois"} {
		if other := daily(s, "2020-11-27", "2020-12-31"); other > caw {
			t.Errorf("winter: %s=%g exceeds CA=%g", s, other, caw)
		}
	}
}

func dateIdx(t *testing.T, d *Dataset, label string) int {
	t.Helper()
	for i := 0; i < d.Rel.NumTimestamps(); i++ {
		if d.Rel.TimeLabel(i) >= label {
			return i
		}
	}
	t.Fatalf("date %s beyond series", label)
	return -1
}

func TestSP500Shape(t *testing.T) {
	d := SP500()
	if got := d.Rel.NumTimestamps(); got != 151 {
		t.Errorf("n = %d, want 151 (Table 6)", got)
	}
	if got := d.Rel.Dim(d.Rel.DimIndex("stock")).Cardinality(); got != 503 {
		t.Errorf("stocks = %d, want 503", got)
	}
	if got := d.Rel.Dim(d.Rel.DimIndex("category")).Cardinality(); got != 11 {
		t.Errorf("categories = %d, want 11", got)
	}
	if got := d.Rel.Dim(d.Rel.DimIndex("subcategory")).Cardinality(); got != 96 {
		t.Errorf("subcategories = %d, want 96", got)
	}
	u := universeOf(t, d)
	if got := u.NumCandidates(); got != 610 {
		t.Errorf("ε = %d, want 610 (Table 6)", got)
	}
}

func TestSP500CrashAndRebound(t *testing.T) {
	d := SP500()
	vals := seriesOf(t, d)
	at := func(m, day int) float64 { return vals[spIndexOf(m, day)] }
	start := vals[0]
	// Pre-crash high in February.
	if peak := at(2, 19); peak <= start {
		t.Errorf("2/19 peak %g should exceed start %g", peak, start)
	}
	// Crash: 3/23 trough roughly one third below the February peak.
	trough := at(3, 23)
	if drop := 1 - trough/at(2, 19); drop < 0.25 || drop > 0.45 {
		t.Errorf("crash depth = %.2f, want ≈0.32", drop)
	}
	// Rebound past the old high by 8/25.
	if rebound := at(8, 25); rebound < at(2, 19) {
		t.Errorf("8/25 level %g should exceed the February peak %g", rebound, at(2, 19))
	}
	// September dip.
	if dip := at(9, 23); dip >= at(8, 25) {
		t.Errorf("September dip %g should be below the 8/25 peak %g", dip, at(8, 25))
	}
}

func TestSP500SectorNarrative(t *testing.T) {
	d := SP500()
	u := universeOf(t, d)
	sectorDelta := func(sector string, fromM, fromD, toM, toD int) float64 {
		conj, err := relation.NewConjunction(d.Rel, map[string]string{"category": sector})
		if err != nil {
			t.Fatalf("sector %s: %v", sector, err)
		}
		id, ok := u.Lookup(conj)
		if !ok {
			t.Fatalf("sector %s missing", sector)
		}
		vals := u.CandidateValues(id)
		return vals[spIndexOf(toM, toD)] - vals[spIndexOf(fromM, fromD)]
	}
	// Both tech and financial fall in the crash.
	if dTech := sectorDelta("technology", 2, 6, 3, 24); dTech >= 0 {
		t.Errorf("tech crash delta = %g, want negative", dTech)
	}
	dFin := sectorDelta("financial", 2, 6, 3, 24)
	if dFin >= 0 {
		t.Errorf("financial crash delta = %g, want negative", dFin)
	}
	// Rebound: tech strongly positive, financial barely recovers.
	rTech := sectorDelta("technology", 3, 24, 8, 25)
	rFin := sectorDelta("financial", 3, 24, 8, 25)
	if rTech <= 0 || rTech < 4*rFin {
		t.Errorf("rebound: tech=%g should dominate financial=%g", rTech, rFin)
	}
}

func TestLiquorShape(t *testing.T) {
	d := Liquor()
	if got := d.Rel.NumTimestamps(); got != 128 {
		t.Errorf("n = %d, want 128 (Table 6)", got)
	}
	for _, attr := range d.ExplainBy {
		if d.Rel.DimIndex(attr) < 0 {
			t.Errorf("missing explain-by attribute %q", attr)
		}
	}
	u := universeOf(t, d)
	if got := u.NumCandidates(); got < 5000 || got > 12000 {
		t.Errorf("ε = %d, want ≈8200 (Table 6)", got)
	}
	kept := u.FilterLowSupport(0.001)
	if len(kept) >= u.NumCandidates()/2 {
		t.Errorf("filter kept %d of %d, want under half", len(kept), u.NumCandidates())
	}
}

func TestLiquorPandemicNarrative(t *testing.T) {
	d := Liquor()
	u := universeOf(t, d)
	sliceVals := func(pairs map[string]string) []float64 {
		conj, err := relation.NewConjunction(d.Rel, pairs)
		if err != nil {
			t.Fatalf("conjunction %v: %v", pairs, err)
		}
		id, ok := u.Lookup(conj)
		if !ok {
			t.Fatalf("slice %v missing", pairs)
		}
		return u.CandidateValues(id)
	}
	mean := func(v []float64, from, to int) float64 {
		var s float64
		for i := from; i <= to; i++ {
			s += v[i]
		}
		return s / float64(to-from+1)
	}
	// BV=1000 collapses after the bar closure and recovers by late June.
	bv1000 := sliceVals(map[string]string{"Bottle Volume (ml)": "1000"})
	before := mean(bv1000, liquorDayOf(2, 1), liquorDayOf(3, 6))
	closed := mean(bv1000, liquorDayOf(4, 1), liquorDayOf(4, 21))
	after := mean(bv1000, liquorDayOf(6, 10), 127)
	if closed > 0.5*before {
		t.Errorf("BV=1000 during closure = %g, want well below pre-closure %g", closed, before)
	}
	if after < 0.8*before {
		t.Errorf("BV=1000 after reopening = %g, want recovered toward %g", after, before)
	}
	// Large packs surge during the pandemic.
	for _, pack := range []string{"12", "24", "48"} {
		v := sliceVals(map[string]string{"Pack": pack})
		early := mean(v, liquorDayOf(1, 20), liquorDayOf(2, 10))
		late := mean(v, liquorDayOf(4, 21), liquorDayOf(6, 30))
		if late < early*1.05 {
			t.Errorf("Pack=%s late mean %g should exceed early %g", pack, late, early)
		}
	}
}

func TestVaxDeathsShapeAndNarrative(t *testing.T) {
	d := VaxDeaths()
	if got := d.Rel.NumTimestamps(); got != 39 {
		t.Errorf("n = %d, want 39 weeks", got)
	}
	u := universeOf(t, d)
	if got := u.NumCandidates(); got != 11 {
		// 3 ages + 2 vax + 6 pairs = 11.
		t.Errorf("ε = %d, want 11", got)
	}
	vals := seriesOf(t, d)
	// Deaths decline into summer then rise in the delta wave.
	if vals[10] >= vals[0] {
		t.Errorf("week-24 deaths %g should be below week-14 %g", vals[10], vals[0])
	}
	peak := 0.0
	for _, v := range vals[15:] {
		peak = math.Max(peak, v)
	}
	if peak <= vals[0] {
		t.Errorf("delta peak %g should exceed the spring level %g", peak, vals[0])
	}
	// Unvaccinated dominate deaths early; their share shrinks late.
	unvax := func(week int) float64 {
		conj, _ := relation.NewConjunction(d.Rel, map[string]string{"vaccinated": "NO"})
		id, ok := u.Lookup(conj)
		if !ok {
			t.Fatal("vaccinated=NO missing")
		}
		return u.CandidateValues(id)[week] / vals[week]
	}
	if early := unvax(0); early < 0.8 {
		t.Errorf("early unvaccinated share = %g, want > 0.8", early)
	}
	if late := unvax(38); late > 0.75 {
		t.Errorf("late unvaccinated share = %g, want reduced", late)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := seriesOf(t, CovidTotal())
	b := seriesOf(t, CovidTotal())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("covid not deterministic at %d", i)
		}
	}
	sa := seriesOf(t, SP500())
	sb := seriesOf(t, SP500())
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sp500 not deterministic at %d", i)
		}
	}
}

func TestHelperShapes(t *testing.T) {
	if got := bump(10, 10, 5, 100); got != 100 {
		t.Errorf("bump at center = %g, want 100", got)
	}
	if got := bump(1000, 10, 5, 100); got > 1e-6 {
		t.Errorf("bump far away = %g, want ~0", got)
	}
	if ramp(5, 10, 20, 3) != 0 || ramp(25, 10, 20, 3) != 3 || ramp(15, 10, 20, 3) != 1.5 {
		t.Error("ramp endpoints/midpoint wrong")
	}
	if got := lerpSeq(5, []float64{0, 10}, []float64{0, 100}); got != 50 {
		t.Errorf("lerpSeq midpoint = %g, want 50", got)
	}
	if got := lerpSeq(-1, []float64{0, 10}, []float64{0, 100}); got != 0 {
		t.Errorf("lerpSeq before = %g, want 0", got)
	}
	if got := lerpSeq(99, []float64{0, 10}, []float64{0, 100}); got != 100 {
		t.Errorf("lerpSeq after = %g, want 100", got)
	}
	if got := strings3("real estate"); got != "REA" {
		t.Errorf("strings3 = %q", got)
	}
	if got := strings3("ab"); got != "ABX" {
		t.Errorf("strings3 short = %q", got)
	}
}

// TestBuiltinLookup pins the one table of built-in datasets: the listing
// order the server's /api/datasets shows, and the names and alias the
// server, the CLI and datagen accept.
func TestBuiltinLookup(t *testing.T) {
	want := []string{"covid", "covid-daily", "sp500", "liquor", "vax-deaths", "stream"}
	if got := BuiltinNames(); !slices.Equal(got, want) {
		t.Fatalf("BuiltinNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		if canon, gen, ok := Builtin(name); !ok || canon != name || gen == nil {
			t.Errorf("Builtin(%q) = %q, %v", name, canon, ok)
		}
	}
	canon, gen, ok := Builtin("covid-total")
	if !ok || canon != "covid" || gen().Name != CovidTotal().Name {
		t.Errorf("Builtin(covid-total) = %q, %v, want the covid dataset", canon, ok)
	}
	if _, gen, ok := Builtin("stream"); !ok || gen().Rel.NumTimestamps() != StreamDays {
		t.Errorf("Builtin(stream) does not generate %d days of the stream dataset", StreamDays)
	}
	for _, name := range []string{"", "taxonomy", "Covid", "covid-total "} {
		if _, _, ok := Builtin(name); ok {
			t.Errorf("Builtin(%q) resolved, want unknown", name)
		}
	}
}
