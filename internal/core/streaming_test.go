package core

import (
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/explain"
	"repro/internal/relation"
)

// replayBuilder reconstructs, from scratch through the Builder path, the
// exact row sequence the incremental engine has ingested so far, so the
// from-scratch comparator explains byte-for-byte the same relation.
type replayBuilder struct {
	timeVals []string
	dims     [][]string
	measures [][]float64
}

func (rb *replayBuilder) append(timeVals []string, dims [][]string, measures [][]float64) {
	rb.timeVals = append(rb.timeVals, timeVals...)
	rb.dims = append(rb.dims, dims...)
	rb.measures = append(rb.measures, measures...)
}

func (rb *replayBuilder) relation(t *testing.T) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("stream", "date", []string{"state", "county"}, []string{"cases"})
	for i := range rb.timeVals {
		if err := b.Append(rb.timeVals[i], rb.dims[i], rb.measures[i]); err != nil {
			t.Fatal(err)
		}
	}
	rel, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// sameResults asserts the two results agree on everything a user sees:
// segmentation, labels, series values, and every segment's ranked
// explanations with bit-identical scores.
func sameResults(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if got.K != want.K || got.AutoK != want.AutoK {
		t.Fatalf("%s: K=%d autoK=%v, want K=%d autoK=%v", ctx, got.K, got.AutoK, want.K, want.AutoK)
	}
	if gc, wc := fmt.Sprint(got.Cuts()), fmt.Sprint(want.Cuts()); gc != wc {
		t.Fatalf("%s: cuts %s, want %s", ctx, gc, wc)
	}
	if got.TotalVariance != want.TotalVariance {
		t.Fatalf("%s: total variance %v, want %v", ctx, got.TotalVariance, want.TotalVariance)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: series length %d, want %d", ctx, len(got.Series), len(want.Series))
	}
	for i := range got.Series {
		if got.Series[i] != want.Series[i] {
			t.Fatalf("%s: series[%d] = %v, want %v", ctx, i, got.Series[i], want.Series[i])
		}
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: label[%d] = %q, want %q", ctx, i, got.Labels[i], want.Labels[i])
		}
	}
	for s := range got.Segments {
		g, w := got.Segments[s], want.Segments[s]
		if g.StartLabel != w.StartLabel || g.EndLabel != w.EndLabel {
			t.Fatalf("%s: segment %d spans %s~%s, want %s~%s", ctx, s, g.StartLabel, g.EndLabel, w.StartLabel, w.EndLabel)
		}
		if len(g.Top) != len(w.Top) {
			t.Fatalf("%s: segment %d has %d explanations, want %d", ctx, s, len(g.Top), len(w.Top))
		}
		for i := range g.Top {
			ge, we := g.Top[i], w.Top[i]
			if ge.Predicates != we.Predicates || ge.Effect != we.Effect || ge.Gamma != we.Gamma {
				t.Fatalf("%s: segment %d explanation %d = {%s %s γ=%v}, want {%s %s γ=%v}",
					ctx, s, i, ge.Predicates, ge.Effect, ge.Gamma, we.Predicates, we.Effect, we.Gamma)
			}
			for j := range ge.Values {
				if ge.Values[j] != we.Values[j] {
					t.Fatalf("%s: segment %d explanation %d value %d = %v, want %v",
						ctx, s, i, j, ge.Values[j], we.Values[j])
				}
			}
		}
	}
}

// scoreTableState captures the engine's score table before an append so
// sameScoreTable can tell an in-place refresh from a rebuild.
type scoreTableState struct {
	tab *explain.ScoreTable
	ids []int
}

func captureScoreTable(eng *Engine) scoreTableState {
	tab := eng.Explainer().ScoreTable()
	return scoreTableState{tab: tab, ids: tab.IDs()}
}

// sameScoreTable asserts the engine's score table — refreshed in place by
// the append path — equals one freshly built from the universe over the
// current survivor set, and that the append rebuilt it exactly when the
// survivor set changed.
func sameScoreTable(t *testing.T, ctx string, eng *Engine, before scoreTableState) {
	t.Helper()
	got := eng.Explainer().ScoreTable()
	var ids []int
	if eng.allowed != nil {
		ids = []int{}
		for id, ok := range eng.allowed {
			if ok {
				ids = append(ids, id)
			}
		}
	}
	want := explain.NewScoreTable(eng.Universe(), ids)
	if !got.Equal(want) {
		t.Fatalf("%s: score table differs from a fresh build (%d ids, want %d)", ctx, len(got.IDs()), len(want.IDs()))
	}
	unchanged := fmt.Sprint(before.ids) == fmt.Sprint(want.IDs())
	if refreshed := got == before.tab; refreshed != unchanged {
		t.Fatalf("%s: table refreshed in place = %v, survivor set unchanged = %v", ctx, refreshed, unchanged)
	}
}

// TestIncrementalAppendFilterFlip streams a workload where a slice sits
// below the support-filter threshold for all of history and then crosses
// it mid-stream. The flip changes the selectable set for every segment,
// so the append path must drop its cached explanations (and its position
// restriction) for that update to stay identical to a from-scratch run.
func TestIncrementalAppendFilterFlip(t *testing.T) {
	opts := Options{FilterRatio: 0.01, MaxOrder: 1}
	day := func(d int) (ts []string, dims [][]string, meas [][]float64) {
		label := fmt.Sprintf("d%03d", d)
		big := 1000.0 + 10*float64(d)
		// tiny moves (nonzero γ, so it would be reported if selectable)
		// but stays below 1% of the total for all of history...
		tiny := 0.5 + 0.02*float64(d)
		if d >= 30 {
			// ...then crosses the threshold at day 30, flipping its
			// filter status for every cached early segment too.
			tiny = 400 + 5*float64(d-29)
		}
		for _, r := range []struct {
			s string
			v float64
		}{{"big", big}, {"mid", 200 + 3*float64(d)}, {"tiny", tiny}} {
			ts = append(ts, label)
			dims = append(dims, []string{r.s})
			meas = append(meas, []float64{r.v})
		}
		return
	}
	b := relation.NewBuilder("flip", "day", []string{"state"}, []string{"v"})
	var all struct {
		ts   []string
		dims [][]string
		meas [][]float64
	}
	addAll := func(ts []string, dims [][]string, meas [][]float64) {
		all.ts = append(all.ts, ts...)
		all.dims = append(all.dims, dims...)
		all.meas = append(all.meas, meas...)
	}
	for d := 0; d < 25; d++ {
		ts, dims, meas := day(d)
		addAll(ts, dims, meas)
		for i := range ts {
			if err := b.Append(ts[i], dims[i], meas[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	base, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Measure: "v", Agg: relation.Sum}
	inc, _, err := NewIncremental(base, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The compatibility snapshot path must handle the flip too.
	incSnap, _, err := NewIncremental(base, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for d := 25; d < 40; d++ {
		ts, dims, meas := day(d)
		addAll(ts, dims, meas)
		before := captureScoreTable(inc.Engine())
		res, err := inc.AppendRows(ts, dims, meas)
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		sameScoreTable(t, fmt.Sprintf("day %d", d), inc.Engine(), before)
		fb := relation.NewBuilder("flip", "day", []string{"state"}, []string{"v"})
		for i := range all.ts {
			if err := fb.Append(all.ts[i], all.dims[i], all.meas[i]); err != nil {
				t.Fatal(err)
			}
		}
		frel, err := fb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngine(frel, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Explain()
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("day %d", d), res, want)
		snapRes, err := incSnap.Update(frel)
		if err != nil {
			t.Fatalf("day %d snapshot: %v", d, err)
		}
		sameResults(t, fmt.Sprintf("day %d (snapshot)", d), snapRes, want)
		if d == 30 && fresh.FilteredCount() != inc.Engine().FilteredCount() {
			t.Fatalf("day %d: filtered count %d, want %d", d, inc.Engine().FilteredCount(), fresh.FilteredCount())
		}
	}
}

// TestIncrementalAppendMatchesFromScratch replays the streaming workload
// day by day through Incremental.AppendRows and asserts that every
// update's result is identical to a from-scratch Explain over the same
// rows — including the day FL (a brand-new state, with brand-new county
// slices) first appears mid-stream, and a late batch revising the most
// recent day.
func TestIncrementalAppendMatchesFromScratch(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"vanilla", Options{}},
		{"filter+guess", Options{FilterRatio: 0.001, UseGuessVerify: true}},
		{"smoothed", Options{SmoothWindow: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.MaxOrder = 2
			const start = 60
			rb := &replayBuilder{}
			for day := 0; day < start; day++ {
				rb.append(datasets.StreamDelta(day))
			}
			base := rb.relation(t)
			q := Query{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state", "county"}}
			inc, first, err := NewIncremental(base, q, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if first.K < 2 {
				t.Fatalf("initial K = %d", first.K)
			}

			check := func(day int, res *Result) {
				t.Helper()
				fresh, err := NewEngine(rb.relation(t), q, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Explain()
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, fmt.Sprintf("day %d", day), res, want)
			}

			for day := start; day < datasets.StreamDays; day++ {
				tv, dv, mv := datasets.StreamDelta(day)
				rb.append(tv, dv, mv)
				before := captureScoreTable(inc.Engine())
				res, err := inc.AppendRows(tv, dv, mv)
				if err != nil {
					t.Fatalf("day %d: %v", day, err)
				}
				sameScoreTable(t, fmt.Sprintf("day %d", day), inc.Engine(), before)
				check(day, res)

				if day == 75 {
					// Late-arriving records revising the most recent day.
					late := []string{tv[0]}
					lateDims := [][]string{{"TX", "c9"}}
					lateMeas := [][]float64{{17}}
					rb.append(late, lateDims, lateMeas)
					before := captureScoreTable(inc.Engine())
					res, err := inc.AppendRows(late, lateDims, lateMeas)
					if err != nil {
						t.Fatalf("day %d revision: %v", day, err)
					}
					sameScoreTable(t, fmt.Sprintf("day %d revision", day), inc.Engine(), before)
					check(day, res)
				}
			}
		})
	}
}

// TestIncrementalAppendGivesLeafAChild streams a workload in which an
// append gives an existing leaf of the solve's adjacency a child, and
// checks every update bit for bit against an engine built from scratch.
//
// TX is large enough to pass the support filter, but each of its five
// counties stays below it. With the filter on, the score table's
// adjacency is pruned to the survivors' ancestors, so TX is a leaf there.
// On day 35 a new county t6 arrives in TX with enough mass to pass: the
// survivor set changes, the table is rebuilt, and TX gains the child
// TX & t6. With the filter off the table reads the universe's full
// adjacency, where leaves are structural (a node below β̄ always has
// children), so the same append only adds a child to TX, an existing
// internal node; the case still checks the refreshed leaf bits and the
// results against a fresh build. From day 37 a tiny county t7 adds
// candidates that fail the filter, so the filtered table survives that
// append and only refreshes.
func TestIncrementalAppendGivesLeafAChild(t *testing.T) {
	day := func(d int) (ts []string, dims [][]string, meas [][]float64) {
		label := fmt.Sprintf("d%03d", d)
		add := func(state, county string, v float64) {
			ts = append(ts, label)
			dims = append(dims, []string{state, county})
			meas = append(meas, []float64{v})
		}
		add("NY", "kings", 1000+20*float64(d))
		add("NY", "queens", 500+5*float64(d%7))
		for c := 1; c <= 5; c++ {
			add("TX", fmt.Sprintf("t%d", c), 10+float64((d+c)%3))
		}
		if d >= 35 {
			add("TX", "t6", 400+30*float64(d-35))
		}
		if d >= 37 {
			// Too small to pass: new candidates the surviving table does
			// not list, so the append refreshes it in place.
			add("TX", "t7", 1)
		}
		return
	}
	q := Query{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state", "county"}}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"filter", Options{FilterRatio: 0.02, MaxOrder: 2, UseGuessVerify: true}},
		{"nofilter", Options{MaxOrder: 2, UseGuessVerify: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rb := &replayBuilder{}
			for d := 0; d < 30; d++ {
				rb.append(day(d))
			}
			inc, _, err := NewIncremental(rb.relation(t), q, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			txLeaf := func() bool {
				eng := inc.Engine()
				tx, err := relation.NewConjunction(eng.Universe().Relation(), map[string]string{"state": "TX"})
				if err != nil {
					t.Fatal(err)
				}
				id, ok := eng.Universe().Lookup(tx)
				if !ok {
					t.Fatal("TX is not a candidate")
				}
				leaves := eng.Explainer().ScoreTable().Leaves()
				return leaves[id/64]&(1<<(id%64)) != 0
			}
			if got, want := txLeaf(), tc.opts.FilterRatio > 0; got != want {
				t.Fatalf("before the append TX is a leaf = %v, want %v", got, want)
			}
			for d := 30; d < 40; d++ {
				ts, dims, meas := day(d)
				rb.append(ts, dims, meas)
				before := captureScoreTable(inc.Engine())
				res, err := inc.AppendRows(ts, dims, meas)
				if err != nil {
					t.Fatalf("day %d: %v", d, err)
				}
				ctx := fmt.Sprintf("day %d", d)
				sameScoreTable(t, ctx, inc.Engine(), before)
				sameLeaves(t, ctx, inc.Engine())
				fresh, err := NewEngine(rb.relation(t), q, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Explain()
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, ctx, res, want)
				if d >= 35 && txLeaf() {
					t.Fatalf("%s: TX is still a leaf after t6 arrived", ctx)
				}
			}
		})
	}
}

// sameLeaves asserts the engine's score table carries the leaf bits of a
// table built fresh over the same universe and survivor set.
func sameLeaves(t *testing.T, ctx string, eng *Engine) {
	t.Helper()
	var ids []int
	if eng.allowed != nil {
		ids = []int{}
		for id, ok := range eng.allowed {
			if ok {
				ids = append(ids, id)
			}
		}
	}
	got := eng.Explainer().ScoreTable().Leaves()
	want := explain.NewScoreTable(eng.Universe(), ids).Leaves()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: leaf bits %x, want %x", ctx, got, want)
	}
}
