package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/explain"
	"repro/internal/relation"
	"repro/internal/segment"
	"repro/internal/synth"
)

// threePhase builds a relation whose ground-truth segmentation has cuts
// at the given positions: categories take turns rising.
func threePhase(t testing.TB, n int, cuts []int) *relation.Relation {
	t.Helper()
	bounds := append(append([]int{0}, cuts...), n-1)
	cats := []string{"a", "b", "c"}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("%04d", i)
	}
	b2 := relation.NewBuilder("x", "t", []string{"category"}, []string{"v"})
	b2.SetTimeOrder(labels)
	level := map[string]float64{"a": 100, "b": 100, "c": 100}
	segOf := func(i int) int {
		for s := 1; s < len(bounds); s++ {
			if i <= bounds[s] {
				return s - 1
			}
		}
		return len(bounds) - 2
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			level[cats[segOf(i)%len(cats)]] += 10
		}
		for _, c := range cats {
			if err := b2.Append(labels[i], []string{c}, []float64{level[c]}); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
	}
	r, err := b2.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return r
}

func TestEngineRecoversGroundTruthAutoK(t *testing.T) {
	rel := threePhase(t, 60, []int{20, 40})
	eng, err := NewEngine(rel, Query{Measure: "v", Agg: relation.Sum}, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Explain()
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !res.AutoK {
		t.Error("AutoK should be set when K unspecified")
	}
	if res.K != 3 {
		t.Fatalf("elbow chose K=%d, want 3 (cuts %v)", res.K, res.Cuts())
	}
	cuts := res.Cuts()
	if cuts[1] < 19 || cuts[1] > 21 || cuts[2] < 39 || cuts[2] > 41 {
		t.Errorf("cuts = %v, want ≈[0 20 40 59]", cuts)
	}
	// Each segment's top-1 explanation is the rising category.
	wantTop := []string{"category=a", "category=b", "category=c"}
	for i, seg := range res.Segments {
		if len(seg.Top) == 0 {
			t.Fatalf("segment %d has no explanations", i)
		}
		if seg.Top[0].Predicates != wantTop[i] {
			t.Errorf("segment %d top-1 = %q, want %q", i, seg.Top[0].Predicates, wantTop[i])
		}
		if seg.Top[0].Effect != explain.Increase {
			t.Errorf("segment %d effect = %v, want +", i, seg.Top[0].Effect)
		}
	}
}

// TestDefaultOptionsRecoverGroundTruth runs the fully optimized engine —
// support filter, guess-and-verify and sketching — and checks it still
// finds both ground-truth cuts.
func TestDefaultOptionsRecoverGroundTruth(t *testing.T) {
	rel := threePhase(t, 80, []int{25, 55})
	eng, err := NewEngine(rel, Query{Measure: "v", Agg: relation.Sum}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	cuts := res.Cuts()
	found25, found55 := false, false
	for _, c := range cuts {
		if c >= 23 && c <= 27 {
			found25 = true
		}
		if c >= 53 && c <= 57 {
			found55 = true
		}
	}
	if !found25 || !found55 {
		t.Errorf("optimized cuts %v miss ground truth {25, 55}", cuts)
	}
}

func TestEngineFixedK(t *testing.T) {
	rel := threePhase(t, 40, []int{20})
	eng, err := NewEngine(rel, Query{Measure: "v", Agg: relation.Sum}, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoK {
		t.Error("AutoK should be false for fixed K")
	}
	if res.K != 2 || len(res.Segments) != 2 {
		t.Fatalf("K = %d, segments = %d, want 2", res.K, len(res.Segments))
	}
	if got := res.Cuts()[1]; got < 19 || got > 21 {
		t.Errorf("cut = %d, want ≈20", got)
	}
}

func TestEngineSegmentsTileSeries(t *testing.T) {
	rel := threePhase(t, 50, []int{15, 35})
	eng, err := NewEngine(rel, Query{Measure: "v", Agg: relation.Sum}, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments[0].Start != 0 {
		t.Errorf("first segment starts at %d", res.Segments[0].Start)
	}
	if last := res.Segments[len(res.Segments)-1]; last.End != 49 {
		t.Errorf("last segment ends at %d", last.End)
	}
	for i := 1; i < len(res.Segments); i++ {
		if res.Segments[i].Start != res.Segments[i-1].End {
			t.Errorf("segments %d/%d do not tile: %d vs %d",
				i-1, i, res.Segments[i-1].End, res.Segments[i].Start)
		}
	}
	for _, seg := range res.Segments {
		if seg.StartLabel == "" || seg.EndLabel == "" {
			t.Error("segment labels missing")
		}
		for _, e := range seg.Top {
			if len(e.Values) != seg.End-seg.Start+1 {
				t.Errorf("explanation values length %d, want %d",
					len(e.Values), seg.End-seg.Start+1)
			}
			if len(e.Attrs) == 0 || e.Predicates == "" {
				t.Error("explanation attrs/predicates missing")
			}
		}
	}
}

func TestOptimizationsPreserveQuality(t *testing.T) {
	// The paper's Table 7: O1+O2 variance within ~1% of vanilla.
	d, err := synth.Generate(synth.Params{Seed: 21, SNRdB: 40})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Measure: "sales", Agg: relation.Sum}
	vanilla, err := NewEngine(d.Rel, q, Options{K: d.K})
	if err != nil {
		t.Fatal(err)
	}
	rv, err := vanilla.Explain()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewEngine(d.Rel, q, func() Options {
		o := DefaultOptions()
		o.K = d.K
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	ro, err := opt.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if rv.TotalVariance == 0 {
		if ro.TotalVariance > 1e-9 {
			t.Fatalf("optimized variance %g, vanilla 0", ro.TotalVariance)
		}
		return
	}
	ratio := ro.TotalVariance / rv.TotalVariance
	if ratio > 1.15 {
		t.Errorf("optimized variance %.4f vs vanilla %.4f (ratio %.3f), want within 15%%",
			ro.TotalVariance, rv.TotalVariance, ratio)
	}
	if rv.Stats.SketchSize != d.Rel.NumTimestamps() {
		t.Errorf("vanilla sketch size = %d, want n", rv.Stats.SketchSize)
	}
	if ro.Stats.SketchSize >= d.Rel.NumTimestamps() {
		t.Errorf("optimized sketch size = %d, want < n", ro.Stats.SketchSize)
	}
}

func TestGuessVerifyMatchesVanillaExactly(t *testing.T) {
	rel := threePhase(t, 40, []int{20})
	q := Query{Measure: "v", Agg: relation.Sum}
	vanilla, _ := NewEngine(rel, q, Options{K: 2})
	rv, err := vanilla.Explain()
	if err != nil {
		t.Fatal(err)
	}
	o1, _ := NewEngine(rel, q, Options{K: 2, UseGuessVerify: true, GuessInit: 2})
	r1, err := o1.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rv.TotalVariance-r1.TotalVariance) > 1e-12 {
		t.Errorf("guess-and-verify changed the objective: %g vs %g",
			r1.TotalVariance, rv.TotalVariance)
	}
	if fmt.Sprint(rv.Cuts()) != fmt.Sprint(r1.Cuts()) {
		t.Errorf("guess-and-verify changed cuts: %v vs %v", r1.Cuts(), rv.Cuts())
	}
}

func TestFilterDropsTinySlices(t *testing.T) {
	b := relation.NewBuilder("x", "t", []string{"c"}, []string{"v"})
	labels := []string{"0", "1", "2", "3"}
	b.SetTimeOrder(labels)
	for i, l := range labels {
		_ = b.Append(l, []string{"big"}, []float64{1000 + 100*float64(i)})
		_ = b.Append(l, []string{"tiny"}, []float64{0.01})
	}
	rel, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(rel, Query{Measure: "v", Agg: relation.Sum}, Options{FilterRatio: 0.001, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.FilteredCount(); got != 1 {
		t.Errorf("FilteredCount = %d, want 1", got)
	}
	res, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Segments[0].Top {
		if strings.Contains(e.Predicates, "tiny") {
			t.Errorf("filtered slice appeared in explanations: %q", e.Predicates)
		}
	}
	if res.Stats.Epsilon != 2 || res.Stats.FilteredEpsilon != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

// TestResidentBytesChargesScoreTable checks the Cascading Analysts
// score table is charged once a solve has built it, and that it and the
// variance calculator's caches are the only change to the resident
// estimate an explain makes.
func TestResidentBytesChargesScoreTable(t *testing.T) {
	rel := threePhase(t, 60, []int{20, 40})
	for _, opts := range []Options{{K: 2}, {K: 2, FilterRatio: 0.4}, {K: 2, Approx: ApproxOptions{Enabled: true}}} {
		eng, err := NewEngine(rel, Query{Measure: "v", Agg: relation.Sum}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts.FilterRatio > 0 && eng.FilteredCount() == eng.Universe().NumCandidates() {
			t.Fatalf("filter %g keeps every candidate; the case needs a proper survivor set", opts.FilterRatio)
		}
		unsolved := eng.ResidentBytes()
		if _, err := eng.Explain(); err != nil {
			t.Fatal(err)
		}
		tab := eng.Explainer().ScoreTable()
		if len(tab.IDs()) != eng.FilteredCount() {
			t.Fatalf("filter %g: table lists %d candidates, want the %d survivors", opts.FilterRatio, len(tab.IDs()), eng.FilteredCount())
		}
		if min := int64(8 * len(tab.IDs()) * eng.Universe().NumTimestamps()); tab.Bytes() < min {
			t.Fatalf("filter %g: table charges %d bytes, below its %d-byte value rows", opts.FilterRatio, tab.Bytes(), min)
		}
		built := eng.ResidentBytes()
		if eng.vc == nil || eng.vc.Bytes() == 0 {
			t.Fatalf("filter %g: the explain left no charged variance calculator", opts.FilterRatio)
		}
		if built-unsolved != tab.Bytes()+eng.vc.Bytes() {
			t.Errorf("filter %g: footprint grew %d → %d with a %d-byte table and %d bytes of variance caches: they are not what changed",
				opts.FilterRatio, unsolved, built, tab.Bytes(), eng.vc.Bytes())
		}
		if rest := built - tab.Bytes(); rest < eng.Universe().ApproxBytes() {
			t.Errorf("filter %g: footprint %d does not cover universe (%d) plus table (%d)",
				opts.FilterRatio, built, eng.Universe().ApproxBytes(), tab.Bytes())
		}
	}
}

func TestSmoothingReducesNoiseSensitivity(t *testing.T) {
	d, err := synth.Generate(synth.Params{Seed: 3, SNRdB: 20})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Measure: "sales", Agg: relation.Sum}
	smooth, err := NewEngine(d.Rel, q, Options{K: d.K, SmoothWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := smooth.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Series) != d.Rel.NumTimestamps() {
		t.Fatalf("smoothed series length changed")
	}
	// The smoothed aggregated series must differ from the raw one.
	raw := relation.Values(relation.Sum, d.Rel.AggregateSeries(0))
	same := true
	for i := range raw {
		if math.Abs(raw[i]-rs.Series[i]) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Error("smoothing had no effect on the explained series")
	}
}

func TestTimingsAndStatsPopulated(t *testing.T) {
	rel := threePhase(t, 40, []int{20})
	eng, _ := NewEngine(rel, Query{Measure: "v", Agg: relation.Sum}, Options{K: 2})
	res, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Precompute <= 0 {
		t.Error("precompute timing missing")
	}
	if res.Timings.Cascading <= 0 {
		t.Error("cascading timing missing")
	}
	if res.Timings.Total() < res.Timings.Cascading {
		t.Error("total timing inconsistent")
	}
	if res.Stats.CASolves == 0 || res.Stats.N != 40 || res.Stats.Epsilon != 3 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestTopExplanationsDirect(t *testing.T) {
	rel := threePhase(t, 30, []int{15})
	eng, _ := NewEngine(rel, Query{Measure: "v", Agg: relation.Sum}, Options{})
	top, err := eng.TopExplanations(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].Predicates != "category=a" {
		t.Errorf("top explanations = %+v, want category=a first", top)
	}
	if _, err := eng.TopExplanations(10, 5); err == nil {
		t.Error("inverted segment: want error")
	}
	if _, err := eng.TopExplanations(-1, 5); err == nil {
		t.Error("negative start: want error")
	}
}

func TestEngineErrors(t *testing.T) {
	rel := threePhase(t, 20, []int{10})
	if _, err := NewEngine(rel, Query{Measure: "nope", Agg: relation.Sum}, Options{}); err == nil {
		t.Error("unknown measure: want error")
	}
	// Single-point series cannot be explained.
	b := relation.NewBuilder("x", "t", []string{"c"}, []string{"v"})
	_ = b.Append("only", []string{"a"}, []float64{1})
	tiny, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tiny, Query{Measure: "v", Agg: relation.Sum}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Explain(); err == nil {
		t.Error("1-point series: want error")
	}
}

func TestVarianceKindOptionIsHonored(t *testing.T) {
	rel := threePhase(t, 30, []int{15})
	q := Query{Measure: "v", Agg: relation.Sum}
	for _, kind := range []segment.VarianceKind{segment.Tse, segment.Dist1, segment.AllPair} {
		eng, err := NewEngine(rel, q, Options{K: 2, VarianceKind: kind})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Explain()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got := res.Cuts()[1]; got < 14 || got > 16 {
			t.Errorf("%v: cut = %d, want ≈15", kind, got)
		}
	}
}

func TestIncrementalMatchesBatchOnAppend(t *testing.T) {
	full := threePhase(t, 60, []int{20, 40})
	// Prefix snapshot: first 45 timestamps.
	prefix := sliceRelation(t, full, 45)

	q := Query{Measure: "v", Agg: relation.Sum}
	inc, first, err := NewIncremental(prefix, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.K < 2 {
		t.Fatalf("initial K = %d", first.K)
	}
	res, err := inc.AppendRows(full.RowBatch(full.RowsByTime(), 45, 60))
	if err != nil {
		t.Fatal(err)
	}
	cuts := res.Cuts()
	if cuts[len(cuts)-1] != 59 {
		t.Fatalf("updated cuts %v should end at 59", cuts)
	}
	// The incremental result must still find both regime changes.
	found20, found40 := false, false
	for _, c := range cuts {
		if c >= 19 && c <= 21 {
			found20 = true
		}
		if c >= 39 && c <= 41 {
			found40 = true
		}
	}
	if !found20 || !found40 {
		t.Errorf("incremental cuts %v miss the ground truth {20, 40}", cuts)
	}
}

// sliceRelation rebuilds a relation restricted to the first n timestamps.
func sliceRelation(t testing.TB, r *relation.Relation, n int) *relation.Relation {
	t.Helper()
	labels := r.TimeLabels()[:n]
	keep := make(map[string]bool, n)
	for _, l := range labels {
		keep[l] = true
	}
	b := relation.NewBuilder(r.Name(), r.TimeName(), r.DimNames(), r.MeasureNames())
	b.SetTimeOrder(labels)
	dims := make([]string, r.NumDims())
	meas := make([]float64, r.NumMeasures())
	for row := 0; row < r.NumRows(); row++ {
		l := r.TimeLabel(r.TimeIndex(row))
		if !keep[l] {
			continue
		}
		for d := range dims {
			dims[d] = r.DimValue(d, row)
		}
		for m := range meas {
			meas[m] = r.MeasureValue(m, row)
		}
		if err := b.Append(l, dims, meas); err != nil {
			t.Fatal(err)
		}
	}
	out, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEngineNeverWritesRelation checks that building engines and
// explaining leave the relation byte-identical. The server shares one
// published relation among every pooled engine of a dataset, so no engine
// path may declare, derive or otherwise change anything on it. Both
// relations carry a range bin; one declares its taxonomy, the other
// leaves it flat, which is structure an engine could be tempted to
// declare.
func TestEngineNeverWritesRelation(t *testing.T) {
	for _, declared := range []bool{true, false} {
		d, err := synth.Taxonomy(synth.TaxonomyParams{
			Cats: 6, SubcatsPerCat: 4, LeavesPerSubcat: 4, N: 64, Drivers: 6, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		rel := d.Rel
		if declared {
			if err := rel.DeclareHierarchy("cat>subcat>leaf", synth.TaxonomyLevels()); err != nil {
				t.Fatal(err)
			}
		}
		if err := rel.AddRangeBin("price_bin", "price", 4); err != nil {
			t.Fatal(err)
		}
		encode := func() []byte {
			var sw relation.SnapWriter
			rel.EncodeSnapshot(&sw)
			return sw.Bytes()
		}
		want := encode()

		q := Query{Measure: "sales", Agg: relation.Sum, ExplainBy: []string{"cat", "subcat", "leaf", "price_bin"}}
		opts := DefaultOptions()
		opts.MaxOrder = 2
		aopts := opts
		aopts.Approx = ApproxOptions{Enabled: true, Epsilon: 0.05, MaxCandidates: 64}
		explainOn := func(name string, eng *Engine, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("declared=%v %s: %v", declared, name, err)
			}
			if _, err := eng.Explain(); err != nil {
				t.Fatalf("declared=%v %s: explain: %v", declared, name, err)
			}
			if got := encode(); !bytes.Equal(got, want) {
				t.Fatalf("declared=%v: %s wrote to the relation: its %d-byte snapshot became %d bytes",
					declared, name, len(want), len(got))
			}
		}

		eng, err := NewEngine(rel, q, opts)
		explainOn("NewEngine", eng, err)

		eng, err = NewEngine(rel, q, aopts)
		explainOn("approximate NewEngine", eng, err)
		if walked := eng.approx != nil && eng.approx.sel != nil; walked != declared {
			t.Fatalf("declared=%v: the approximate engine took the subtree walk: %v", declared, walked)
		}

		u, err := explain.NewUniverse(rel, explain.Config{
			Measure: q.Measure, Agg: q.Agg, ExplainBy: q.ExplainBy, MaxOrder: opts.MaxOrder,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err = NewEngineFromUniverse(u, q, opts)
		explainOn("NewUniverse + NewEngineFromUniverse", eng, err)
	}
}
