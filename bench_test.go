package tsexplain_test

// Benchmark harness: one benchmark per paper table and figure (see
// DESIGN.md's per-experiment index), plus the ablation benches DESIGN.md
// calls out and micro-benchmarks for the engine's hot paths. The full
// paper-scale runs live in cmd/experiments; these benchmarks use reduced
// workloads so `go test -bench=.` finishes in minutes while still
// exercising every experiment code path.

import (
	"bytes"
	"io"
	"testing"

	tsexplain "repro"
	"repro/internal/baseline"
	"repro/internal/cascading"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/evalmetrics"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/relation"
	"repro/internal/segment"
	"repro/internal/synth"
)

// benchCfg trims the sweeps so one benchmark iteration stays in seconds.
var benchCfg = experiments.Config{Samples: 300, Datasets: 3, Quick: true}

func runDatasetBench(b *testing.B, d *datasets.Dataset, optimized bool) {
	b.Helper()
	var opts core.Options
	if optimized {
		opts = core.DefaultOptions()
	}
	opts.MaxOrder = d.MaxOrder
	opts.SmoothWindow = d.SmoothWindow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(d.Rel, core.Query{
			Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy,
		}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Explain(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per table/figure ---

func BenchmarkFig4SynthCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig4(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6MetricRanking(b *testing.B) {
	cfg := experiments.Config{Samples: 100, Datasets: 2}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10SyntheticAccuracy(b *testing.B) {
	cfg := experiments.Config{Datasets: 2}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11CovidTotal(b *testing.B)  { runDatasetBench(b, datasets.CovidTotal(), true) }
func BenchmarkFig12CovidDaily(b *testing.B)  { runDatasetBench(b, datasets.CovidDaily(), true) }
func BenchmarkFig13SP500(b *testing.B)       { runDatasetBench(b, datasets.SP500(), true) }
func BenchmarkFig14Liquor(b *testing.B)      { runDatasetBench(b, datasets.Liquor(), true) }
func BenchmarkFig18TimeVarying(b *testing.B) { runDatasetBench(b, datasets.VaxDeaths(), true) }

func BenchmarkTable6DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table6(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15Optimizations runs the five optimization variants on the
// covid total series (the full four-dataset breakdown is
// `cmd/experiments -run fig15`).
func BenchmarkFig15Optimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7Quality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table7(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17Scalability measures one mid-size point of the sweep for
// both engines (the full sweep is `cmd/experiments -run fig17`).
func BenchmarkFig17Scalability(b *testing.B) {
	d, err := synth.Generate(synth.Params{Seed: 3, SNRdB: 35, N: 800, MinSegLen: 50})
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{Measure: "sales", Agg: relation.Sum}
	b.Run("vanilla-n800", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, _ := core.NewEngine(d.Rel, q, core.Options{})
			if _, err := eng.Explain(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimized-n800", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, _ := core.NewEngine(d.Rel, q, core.DefaultOptions())
			if _, err := eng.Explain(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benches (DESIGN.md's design-choice list) ---

func BenchmarkAblationRectification(b *testing.B) {
	cfg := experiments.Config{Samples: 300, Datasets: 2}
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationRectification(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGuessInit(b *testing.B) {
	d := datasets.Liquor()
	q := core.Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}
	for _, init := range []int{8, 30, 120} {
		b.Run(benchName("init", init), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.MaxOrder = d.MaxOrder
				opts.SmoothWindow = d.SmoothWindow
				opts.GuessInit = init
				eng, err := core.NewEngine(d.Rel, q, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Explain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationSketchSize(b *testing.B) {
	d := datasets.CovidTotal()
	q := core.Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}
	n := d.Rel.NumTimestamps()
	for _, size := range []int{n / 10, 3 * n / 17, 6 * n / 17} {
		b.Run(benchName("S", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.MaxOrder = d.MaxOrder
				opts.Sketch = segment.SketchConfig{Size: size}
				eng, err := core.NewEngine(d.Rel, q, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Explain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationFilterRatio(b *testing.B) {
	d := datasets.Liquor()
	q := core.Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}
	for _, ratio := range []float64{0.0001, 0.001, 0.01} {
		b.Run(benchName("ratio1e7x", int(ratio*1e7)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.MaxOrder = d.MaxOrder
				opts.SmoothWindow = d.SmoothWindow
				opts.FilterRatio = ratio
				eng, err := core.NewEngine(d.Rel, q, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Explain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks for the hot paths ---

// BenchmarkPrecomputeLiquor measures the precompute module (candidate
// enumeration + series construction) on the liquor dataset — the
// columnar group-by kernel's home turf.
func BenchmarkPrecomputeLiquor(b *testing.B) {
	d := datasets.Liquor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explain.NewUniverse(d.Rel, explain.Config{
			Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrecomputeLiquorParallel is the same build fanned across 4
// workers (identical output, see TestNewUniverseParallelDeterminism).
func BenchmarkPrecomputeLiquorParallel(b *testing.B) {
	d := datasets.Liquor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explain.NewUniverse(d.Rel, explain.Config{
			Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
			Parallelism: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrecomputeKernel measures the columnar integer-keyed group-by
// kernel on the liquor rows.
func BenchmarkPrecomputeKernel(b *testing.B) {
	d := datasets.Liquor()
	var dims []int
	for _, name := range d.ExplainBy {
		dims = append(dims, d.Rel.DimIndex(name))
	}
	if len(dims) > 3 {
		dims = dims[:3]
	}
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Rel.GroupBySeriesColumnar(dims, d.Rel.MeasureIndex(d.Measure))
		}
	})
}

// BenchmarkLiquorEndToEnd runs the full optimized pipeline on liquor,
// the precompute-dominated end-to-end workload of Figure 15.
func BenchmarkLiquorEndToEnd(b *testing.B) {
	runDatasetBench(b, datasets.Liquor(), true)
}

// BenchmarkLiquorReadCSV measures the layer a cold answer starts with:
// parsing the liquor dataset's catalog CSV (22 MB, 402k rows) into a
// relation.
func BenchmarkLiquorReadCSV(b *testing.B) {
	d := datasets.Liquor()
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, d.Rel); err != nil {
		b.Fatal(err)
	}
	spec := relation.CSVSpec{
		Name: d.Name, TimeCol: d.Rel.TimeName(), DimCols: d.Rel.DimNames(), MeasCols: d.Rel.MeasureNames(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.ReadCSV(bytes.NewReader(buf.Bytes()), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func liquorUniverse(b *testing.B) *explain.Universe {
	b.Helper()
	d := datasets.Liquor()
	u, err := explain.NewUniverse(d.Rel, explain.Config{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
	})
	if err != nil {
		b.Fatal(err)
	}
	return u
}

func BenchmarkUniverseBuildLiquor(b *testing.B) {
	d := datasets.Liquor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explain.NewUniverse(d.Rel, explain.Config{
			Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCascadingSolveExact(b *testing.B) {
	u := liquorUniverse(b)
	s := cascading.NewSolver(u, explain.AbsoluteChange, 3)
	tab := explain.NewScoreTable(u, nil)
	n := u.NumTimestamps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(i%(n/2), n/2+i%(n/2), tab)
	}
}

func BenchmarkCascadingGuessVerify(b *testing.B) {
	u := liquorUniverse(b)
	s := cascading.NewSolver(u, explain.AbsoluteChange, 3)
	tab := explain.NewScoreTable(u, u.FilterLowSupport(0.001))
	n := u.NumTimestamps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GuessVerify(i%(n/2), n/2+i%(n/2), 30, tab)
	}
}

func BenchmarkGammaLookup(b *testing.B) {
	u := liquorUniverse(b)
	n := u.NumTimestamps()
	eps := u.NumCandidates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Gamma(i%eps, 0, n-1, explain.AbsoluteChange)
	}
}

func BenchmarkVarianceWeighted(b *testing.B) {
	d := datasets.CovidTotal()
	u, err := explain.NewUniverse(d.Rel, explain.Config{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
	})
	if err != nil {
		b.Fatal(err)
	}
	exp := segment.NewExplainer(u, segment.ExplainerConfig{M: 3})
	n := u.NumTimestamps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh calculator each iteration so the cache does not absorb
		// the work being measured.
		vc := segment.NewVarCalc(exp, segment.Tse)
		vc.Weighted(0, n-1)
	}
}

func BenchmarkSegmentationDP(b *testing.B) {
	d := datasets.CovidTotal()
	u, err := explain.NewUniverse(d.Rel, explain.Config{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
	})
	if err != nil {
		b.Fatal(err)
	}
	exp := segment.NewExplainer(u, segment.ExplainerConfig{M: 3})
	vc := segment.NewVarCalc(exp, segment.Tse)
	// Warm the caches so the bench isolates the DP itself.
	if _, err := segment.Optimize(vc, segment.Options{KMax: 20}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := segment.Optimize(vc, segment.Options{KMax: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVarCalcAllPair measures the AllPair variance design on the
// covid total series: the O(n²) pair-distance prefix build into the flat
// row-major table, and segment variance queries answered from the
// finished table (one rectangle sum, as the segmentation DP issues them).
func BenchmarkVarCalcAllPair(b *testing.B) {
	d := datasets.CovidTotal()
	u, err := explain.NewUniverse(d.Rel, explain.Config{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
	})
	if err != nil {
		b.Fatal(err)
	}
	exp := segment.NewExplainer(u, segment.ExplainerConfig{M: 3})
	n := u.NumTimestamps()

	b.Run("prefix-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Fresh calculator each iteration so the prefix table is
			// rebuilt from scratch — the quantity being measured.
			vc := segment.NewVarCalc(exp, segment.AllPair)
			vc.Weighted(0, n-1)
		}
	})
	b.Run("segment-query", func(b *testing.B) {
		vc := segment.NewVarCalc(exp, segment.AllPair)
		vc.Weighted(0, n-1) // materialize the prefix table once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := (i * 31) % (n - 2)
			z := a + 2 + (i*17)%(n-a-2)
			vc.Weighted(a, z)
		}
	})
}

// BenchmarkGroupByFill isolates the two-pass group-by kernel on the
// liquor explain-by columns: pass 1 (PlanGroupBy) discovers the groups
// and records each row's slot, pass 2 (FillArena) scatters rows into a
// group-major arena with three indexed loads per row.
func BenchmarkGroupByFill(b *testing.B) {
	d := datasets.Liquor()
	var dims []int
	for _, name := range d.ExplainBy {
		dims = append(dims, d.Rel.DimIndex(name))
	}
	if len(dims) > 2 {
		dims = dims[:2]
	}
	m := d.Rel.MeasureIndex(d.Measure)
	T := d.Rel.NumTimestamps()
	groups := d.Rel.PlanGroupBy(dims, m).NumGroups()
	arena := make([]relation.SumCount, groups*T)

	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Rel.PlanGroupBy(dims, m)
		}
	})
	b.Run("plan+fill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(arena)
			d.Rel.PlanGroupBy(dims, m).FillArena(arena, T)
		}
	})
	b.Run("refill", func(b *testing.B) {
		// A held plan re-derives slots from its maps (the rowSlot record
		// is released after the first fill), exercising the packed-key
		// lookup path that later fills and streaming appends take.
		p := d.Rel.PlanGroupBy(dims, m)
		p.FillArena(arena, T)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(arena)
			p.FillArena(arena, T)
		}
	})
}

func BenchmarkBaselineBottomUp(b *testing.B) {
	vals := synthSeries(b, 1600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.BottomUp(vals, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineFLUSS(b *testing.B) {
	vals := synthSeries(b, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.FLUSS(vals, 6, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineNNSegment(b *testing.B) {
	vals := synthSeries(b, 1600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.NNSegment(vals, 6, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistancePercent(b *testing.B) {
	got := []int{0, 25, 52, 77, 99}
	truth := []int{0, 24, 50, 80, 99}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalmetrics.DistancePercent(got, truth, 100)
	}
}

func BenchmarkIncrementalUpdate(b *testing.B) {
	d, err := synth.Generate(synth.Params{Seed: 9, SNRdB: 40, N: 400, MinSegLen: 25})
	if err != nil {
		b.Fatal(err)
	}
	q := tsexplain.Query{Measure: "sales", Agg: tsexplain.Sum}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, _, err := tsexplain.NewIncremental(d.Rel, q, tsexplain.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Update(d.Rel); err != nil {
			b.Fatal(err)
		}
	}
}

func synthSeries(b *testing.B, n int) []float64 {
	b.Helper()
	d, err := synth.Generate(synth.Params{Seed: 4, SNRdB: 35, N: n, MinSegLen: n / 16})
	if err != nil {
		b.Fatal(err)
	}
	return d.AggregateValues()
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "-0"
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "-" + string(buf[i:])
}
