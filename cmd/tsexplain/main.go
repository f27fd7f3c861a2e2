// Command tsexplain explains an aggregated time series from a CSV file
// (or one of the built-in simulated datasets) by surfacing its evolving
// top contributors.
//
// Examples:
//
//	tsexplain -demo covid
//	tsexplain -csv liquor.csv -time date -dims "Pack,Vendor Name" \
//	    -measure "Bottles Sold" -agg SUM
//	tsexplain -csv mydata.csv -manifest mydata.json
//
// -manifest reads the same JSON document the server's catalog stores
// next to each uploaded dataset (timeCol/dimCols/measureCol/agg/
// explainBy/maxOrder/smoothWindow/hierarchies/rangeBins) and builds the
// relation the way the catalog loads one, derived columns included: run
// on a catalog's own manifest.json and data.csv, an offline run bins and
// explains exactly what the server serves for that dataset, appended rows
// included.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	tsexplain "repro"
	"repro/internal/catalog"
	"repro/internal/datasets"
	"repro/internal/relation"
	rendersvg "repro/internal/render"
)

func main() {
	var (
		csvPath      = flag.String("csv", "", "CSV file to explain (header row required)")
		demo         = flag.String("demo", "", "built-in dataset: "+strings.Join(datasets.BuiltinNames(), ", "))
		manifestPath = flag.String("manifest", "", "catalog manifest JSON describing the CSV (replaces -time/-dims/-measure/-agg/-explain-by)")
		timeCol      = flag.String("time", "", "time column name")
		dims         = flag.String("dims", "", "comma-separated dimension columns")
		measure      = flag.String("measure", "", "measure column name")
		aggName      = flag.String("agg", "SUM", "aggregate function: SUM, COUNT, AVG")
		explainBy    = flag.String("explain-by", "", "comma-separated explain-by columns (default: all dims)")
		k            = flag.Int("k", 0, "segment count (0 = automatic elbow selection)")
		m            = flag.Int("m", 3, "explanations per segment")
		maxOrder     = flag.Int("max-order", 3, "explanation order threshold β̄")
		smooth       = flag.Int("smooth", 0, "moving-average window (0 = none)")
		vanilla      = flag.Bool("vanilla", false, "disable all optimizations")
		recommend    = flag.Bool("recommend", false, "rank dimension attributes by explanatory power and exit")
		svgOut       = flag.String("svg", "", "also write a Figure 2-style trendline SVG to this file")
	)
	flag.Parse()

	if err := run(*csvPath, *demo, *manifestPath, *timeCol, *dims, *measure, *aggName,
		*explainBy, *svgOut, *k, *m, *maxOrder, *smooth, *vanilla, *recommend); err != nil {
		fmt.Fprintln(os.Stderr, "tsexplain:", err)
		os.Exit(1)
	}
}

func run(csvPath, demo, manifestPath, timeCol, dims, measure, aggName, explainBy, svgOut string,
	k, m, maxOrder, smooth int, vanilla, recommend bool) error {
	var (
		rel   *tsexplain.Relation
		query tsexplain.Query
		err   error
	)
	opts := tsexplain.DefaultOptions()
	if vanilla {
		opts = tsexplain.Options{}
	}
	opts.K = k
	opts.M = m
	opts.MaxOrder = maxOrder
	opts.SmoothWindow = smooth

	switch {
	case demo != "":
		_, gen, ok := datasets.Builtin(demo)
		if !ok {
			return fmt.Errorf("unknown demo dataset %q", demo)
		}
		d := gen()
		rel = d.Rel
		query = tsexplain.Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}
		opts.MaxOrder = d.MaxOrder
		if smooth == 0 {
			opts.SmoothWindow = d.SmoothWindow
		}
	case csvPath != "" && manifestPath != "":
		data, derr := os.ReadFile(manifestPath)
		if derr != nil {
			return derr
		}
		mf, derr := catalog.ParseManifest(data)
		if derr != nil {
			return derr
		}
		agg, derr := mf.AggFunc()
		if derr != nil {
			return derr
		}
		f, ferr := os.Open(csvPath)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		rel, err = mf.ReadRelation(f)
		if err != nil {
			return err
		}
		query = tsexplain.Query{Measure: mf.MeasureCol, Agg: agg, ExplainBy: mf.ExplainBy}
		opts.MaxOrder = mf.EffectiveMaxOrder()
		if smooth == 0 {
			opts.SmoothWindow = mf.SmoothWindow
		}
	case csvPath != "":
		if timeCol == "" || dims == "" || measure == "" {
			return fmt.Errorf("-csv requires -manifest, or -time, -dims, and -measure")
		}
		agg, aerr := relation.ParseAggFunc(strings.ToUpper(aggName))
		if aerr != nil {
			return aerr
		}
		f, ferr := os.Open(csvPath)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		rel, err = tsexplain.ReadCSV(f, tsexplain.CSVSpec{
			Name:     csvPath,
			TimeCol:  timeCol,
			DimCols:  splitList(dims),
			MeasCols: []string{measure},
		})
		if err != nil {
			return err
		}
		query = tsexplain.Query{Measure: measure, Agg: agg, ExplainBy: splitList(explainBy)}
	default:
		return fmt.Errorf("pass -csv FILE or -demo NAME (see -h)")
	}

	if recommend {
		scores, err := tsexplain.RecommendExplainBy(rel, query)
		if err != nil {
			return err
		}
		fmt.Println("recommended explain-by attributes (coverage = share of each")
		fmt.Println("step's movement the attribute's best slice accounts for):")
		for i, s := range scores {
			fmt.Printf("  %d. %-28s coverage=%.3f cardinality=%d\n",
				i+1, s.Attribute, s.Coverage, s.Cardinality)
		}
		return nil
	}

	res, err := tsexplain.Explain(rel, query, opts)
	if err != nil {
		return err
	}
	render(res)
	if svgOut != "" {
		f, err := os.Create(svgOut)
		if err != nil {
			return err
		}
		defer f.Close()
		title := demo
		if title == "" {
			title = csvPath
		}
		if err := rendersvg.Trendlines(f, res, title); err != nil {
			return err
		}
		fmt.Printf("\nwrote trendline SVG to %s\n", svgOut)
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func render(res *tsexplain.Result) {
	fmt.Printf("K = %d segments (auto=%v), total variance %.3f\n", res.K, res.AutoK, res.TotalVariance)
	fmt.Printf("latency: precompute %v, cascading %v, segmentation %v\n",
		res.Timings.Precompute, res.Timings.Cascading, res.Timings.Segmentation)
	for _, seg := range res.Segments {
		delta := res.Series[seg.End] - res.Series[seg.Start]
		fmt.Printf("\n%s ~ %s  (KPI %+.4g)\n", seg.StartLabel, seg.EndLabel, delta)
		if len(seg.Top) == 0 {
			fmt.Println("  (no slice moved in this period)")
		}
		for i, e := range seg.Top {
			fmt.Printf("  top-%d  %-48s %s  γ=%.4g\n", i+1, e.Predicates, e.Effect, e.Gamma)
		}
	}
}
