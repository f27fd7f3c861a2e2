package relation

import (
	"fmt"
	"testing"
)

// buildRows constructs a relation from row-major data via the Builder.
func buildRows(t *testing.T, timeVals []string, dims [][]string, measures [][]float64) *Relation {
	t.Helper()
	b := NewBuilder("t", "day", []string{"a", "b"}, []string{"v"})
	for i := range timeVals {
		if err := b.Append(timeVals[i], dims[i], measures[i]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sameRelation(t *testing.T, got, want *Relation) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	if got.NumTimestamps() != want.NumTimestamps() {
		t.Fatalf("timestamps = %d, want %d", got.NumTimestamps(), want.NumTimestamps())
	}
	for i := 0; i < want.NumTimestamps(); i++ {
		if got.TimeLabel(i) != want.TimeLabel(i) {
			t.Fatalf("label %d = %q, want %q", i, got.TimeLabel(i), want.TimeLabel(i))
		}
	}
	for d := 0; d < want.NumDims(); d++ {
		gd, wd := got.Dim(d), want.Dim(d)
		if gd.Cardinality() != wd.Cardinality() {
			t.Fatalf("dim %d cardinality %d, want %d", d, gd.Cardinality(), wd.Cardinality())
		}
		// Dictionaries must match id-for-id (first-appearance order).
		for id := 0; id < wd.Cardinality(); id++ {
			if gd.Value(uint32(id)) != wd.Value(uint32(id)) {
				t.Fatalf("dim %d dict[%d] = %q, want %q", d, id, gd.Value(uint32(id)), wd.Value(uint32(id)))
			}
		}
	}
	for row := 0; row < want.NumRows(); row++ {
		if got.TimeIndex(row) != want.TimeIndex(row) {
			t.Fatalf("row %d time index %d, want %d", row, got.TimeIndex(row), want.TimeIndex(row))
		}
		for d := 0; d < want.NumDims(); d++ {
			if DimID(got, d, row) != DimID(want, d, row) {
				t.Fatalf("row %d dim %d id %d, want %d", row, d, DimID(got, d, row), DimID(want, d, row))
			}
		}
		for m := 0; m < want.NumMeasures(); m++ {
			if got.MeasureValue(m, row) != want.MeasureValue(m, row) {
				t.Fatalf("row %d measure %d = %v, want %v", row, m, got.MeasureValue(m, row), want.MeasureValue(m, row))
			}
		}
	}
}

func TestAppendRowsMatchesBatchBuild(t *testing.T) {
	var timeVals []string
	var dims [][]string
	var measures [][]float64
	for day := 0; day < 8; day++ {
		for _, a := range []string{"x", "y"} {
			timeVals = append(timeVals, fmt.Sprintf("d%02d", day))
			dims = append(dims, []string{a, fmt.Sprintf("g%d", day%3)})
			measures = append(measures, []float64{float64(day*10 + len(a))})
		}
	}
	// A brand-new dimension value arrives mid-stream.
	timeVals = append(timeVals, "d08", "d08")
	dims = append(dims, []string{"z", "g0"}, []string{"x", "g9"})
	measures = append(measures, []float64{77}, []float64{88})

	full := buildRows(t, timeVals, dims, measures)

	const split = 10
	streamed := buildRows(t, timeVals[:split], dims[:split], measures[:split])
	// Feed the remainder in two batches, the second revising the last day.
	if err := streamed.AppendRows(timeVals[split:14], dims[split:14], measures[split:14]); err != nil {
		t.Fatal(err)
	}
	if err := streamed.AppendRows(timeVals[14:], dims[14:], measures[14:]); err != nil {
		t.Fatal(err)
	}
	sameRelation(t, streamed, full)
}

func TestAppendRowsValidation(t *testing.T) {
	base := buildRows(t,
		[]string{"d00", "d01"},
		[][]string{{"x", "g0"}, {"x", "g0"}},
		[][]float64{{1}, {2}})

	cases := []struct {
		name     string
		timeVals []string
		dims     [][]string
		measures [][]float64
	}{
		{"earlier timestamp", []string{"d00"}, [][]string{{"x", "g0"}}, [][]float64{{3}}},
		{"dim count", []string{"d02"}, [][]string{{"x"}}, [][]float64{{3}}},
		{"measure count", []string{"d02"}, [][]string{{"x", "g0"}}, [][]float64{{3, 4}}},
		{"ragged lengths", []string{"d02", "d03"}, [][]string{{"x", "g0"}}, [][]float64{{3}, {4}}},
	}
	for _, tc := range cases {
		if err := base.AppendRows(tc.timeVals, tc.dims, tc.measures); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	// Failed appends must leave the relation untouched.
	if base.NumRows() != 2 || base.NumTimestamps() != 2 {
		t.Errorf("failed append mutated the relation: %d rows, %d timestamps", base.NumRows(), base.NumTimestamps())
	}
	// Revising the current last timestamp is allowed.
	if err := base.AppendRows([]string{"d01"}, [][]string{{"y", "g1"}}, [][]float64{{9}}); err != nil {
		t.Errorf("last-day revision: %v", err)
	}
}

func TestRowsByTime(t *testing.T) {
	r := buildRows(t,
		[]string{"d01", "d00", "d01", "d00"},
		[][]string{{"x", "g0"}, {"y", "g0"}, {"x", "g1"}, {"y", "g1"}},
		[][]float64{{1}, {2}, {3}, {4}})
	byTime := r.RowsByTime()
	if len(byTime) != 2 {
		t.Fatalf("positions = %d, want 2", len(byTime))
	}
	// d00 sorts first; its rows are 1 and 3 in row order.
	if fmt.Sprint(byTime[0]) != "[1 3]" || fmt.Sprint(byTime[1]) != "[0 2]" {
		t.Errorf("byTime = %v", byTime)
	}
}

// TestGroupByPlanAppendMatchesFresh extends a plan with delta rows and
// checks the grouped series against a fresh plan over the full relation,
// including the re-key path when a dictionary outgrows its packed width.
func TestGroupByPlanAppendMatchesFresh(t *testing.T) {
	var timeVals []string
	var dims [][]string
	var measures [][]float64
	addDay := func(day int, a, b string, v float64) {
		timeVals = append(timeVals, fmt.Sprintf("d%02d", day))
		dims = append(dims, []string{a, b})
		measures = append(measures, []float64{v})
	}
	// Prefix: dimension "a" has 2 values (1 packed bit).
	for day := 0; day < 4; day++ {
		addDay(day, "x", "g0", float64(day+1))
		addDay(day, "y", "g1", float64(2*day+1))
	}
	prefixRows := len(timeVals)
	// Delta: values "z", "w" push dimension "a" past its packed width and
	// introduce new groups.
	for day := 4; day < 7; day++ {
		addDay(day, "x", "g1", float64(day))
		addDay(day, "z", "g0", float64(3*day))
		addDay(day, "w", "g2", float64(day*day))
	}

	streamed := buildRows(t, timeVals[:prefixRows], dims[:prefixRows], measures[:prefixRows])
	for _, dsel := range [][]int{{0}, {1}, {0, 1}} {
		plan := streamed.PlanGroupBy(dsel, 0)
		oldGroups := plan.NumGroups()
		oldIDs := make([]string, oldGroups)
		for g := range oldIDs {
			oldIDs[g] = fmt.Sprint(plan.GroupIDsAt(g))
		}

		if err := streamed.AppendRows(timeVals[prefixRows:], dims[prefixRows:], measures[prefixRows:]); err != nil {
			t.Fatal(err)
		}
		added := plan.AppendRows(prefixRows)
		if plan.NumGroups() != oldGroups+added {
			t.Fatalf("dims %v: %d groups after adding %d to %d", dsel, plan.NumGroups(), added, oldGroups)
		}
		for g := 0; g < oldGroups; g++ {
			if fmt.Sprint(plan.GroupIDsAt(g)) != oldIDs[g] {
				t.Fatalf("dims %v: group rank %d id tuple changed from %s to %v", dsel, g, oldIDs[g], plan.GroupIDsAt(g))
			}
		}

		// Streamed fill: old contributions into fresh series, then only
		// the delta.
		T := streamed.NumTimestamps()
		series := make([][]SumCount, plan.NumGroups())
		for g := range series {
			series[g] = make([]SumCount, T)
		}
		plan.FillRows(0, func(rank int) []SumCount { return series[rank] })

		fresh := GroupBySeriesColumnar(streamed, dsel, 0)
		if fresh.NumGroups() != plan.NumGroups() {
			t.Fatalf("dims %v: fresh has %d groups, streamed %d", dsel, fresh.NumGroups(), plan.NumGroups())
		}
		// Match groups by id tuple; series must be identical.
		byTuple := make(map[string]int)
		for g := 0; g < fresh.NumGroups(); g++ {
			byTuple[fmt.Sprint(fresh.GroupIDs(g))] = g
		}
		for g := 0; g < plan.NumGroups(); g++ {
			fg, ok := byTuple[fmt.Sprint(plan.GroupIDsAt(g))]
			if !ok {
				t.Fatalf("dims %v: streamed group %v missing from fresh", dsel, plan.GroupIDsAt(g))
			}
			want := fresh.Series(fg)
			for i := range want {
				if series[g][i] != want[i] {
					t.Fatalf("dims %v group %v t=%d: %+v, want %+v", dsel, plan.GroupIDsAt(g), i, series[g][i], want[i])
				}
			}
		}

		// Rebuild the relation for the next dimension selection.
		streamed = buildRows(t, timeVals[:prefixRows], dims[:prefixRows], measures[:prefixRows])
	}
}

// TestGroupByPlanAppendFallbackOverflow drives the packed plan past 64
// total bits so it must migrate to byte-string keys mid-stream.
func TestGroupByPlanAppendFallbackOverflow(t *testing.T) {
	const nd = 7
	dimNames := make([]string, nd)
	for i := range dimNames {
		dimNames[i] = fmt.Sprintf("d%d", i)
	}
	b := NewBuilder("wide", "day", dimNames, []string{"v"})
	row := func(day int, tag int) ([]string, []float64) {
		vals := make([]string, nd)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%d-%d", i, tag)
		}
		return vals, []float64{float64(tag + day)}
	}
	for day := 0; day < 2; day++ {
		for tag := 0; tag < 2; tag++ {
			dv, mv := row(day, tag)
			if err := b.Append(fmt.Sprintf("d%03d", day), dv, mv); err != nil {
				t.Fatal(err)
			}
		}
	}
	rel, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	dsel := make([]int, nd)
	for i := range dsel {
		dsel[i] = i
	}
	plan := rel.PlanGroupBy(dsel, 0)
	fromRow := rel.NumRows()

	// 1100 distinct values per dimension ⇒ 11 bits × 7 dims = 77 > 64.
	var tv []string
	var dv [][]string
	var mv [][]float64
	for tag := 0; tag < 1100; tag++ {
		rv, rm := row(2, tag)
		tv = append(tv, "d002")
		dv = append(dv, rv)
		mv = append(mv, rm)
	}
	if err := rel.AppendRows(tv, dv, mv); err != nil {
		t.Fatal(err)
	}
	plan.AppendRows(fromRow)

	fresh := GroupBySeriesColumnar(rel, dsel, 0)
	if plan.NumGroups() != fresh.NumGroups() {
		t.Fatalf("groups = %d, want %d", plan.NumGroups(), fresh.NumGroups())
	}
	T := rel.NumTimestamps()
	series := make([][]SumCount, plan.NumGroups())
	for g := range series {
		series[g] = make([]SumCount, T)
	}
	plan.FillRows(0, func(rank int) []SumCount { return series[rank] })
	byTuple := make(map[string]int)
	for g := 0; g < fresh.NumGroups(); g++ {
		byTuple[fmt.Sprint(fresh.GroupIDs(g))] = g
	}
	for g := 0; g < plan.NumGroups(); g++ {
		fg, ok := byTuple[fmt.Sprint(plan.GroupIDsAt(g))]
		if !ok {
			t.Fatalf("group %v missing from fresh", plan.GroupIDsAt(g))
		}
		want := fresh.Series(fg)
		for i := range want {
			if series[g][i] != want[i] {
				t.Fatalf("group %v t=%d: %+v, want %+v", plan.GroupIDsAt(g), i, series[g][i], want[i])
			}
		}
	}
}
