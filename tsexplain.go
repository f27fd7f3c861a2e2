// Package tsexplain explains aggregated time series by surfacing their
// evolving top contributors, reproducing "TSExplain: Explaining Aggregated
// Time Series by Surfacing Evolving Contributors" (Chen & Huang, ICDE
// 2023).
//
// Given a relation R, a group-by query SELECT T, f(M) FROM R GROUP BY T,
// and a set of explain-by attributes, TSExplain partitions the aggregated
// series into K segments such that each segment shares a consistent set
// of top-m non-overlapping explanations (conjunctions of attribute=value
// predicates), and reports those explanations per segment with their
// difference scores and change effects.
//
// # Quick start
//
//	rel, _ := tsexplain.ReadCSV(file, tsexplain.CSVSpec{
//		TimeCol:  "date",
//		DimCols:  []string{"state"},
//		MeasCols: []string{"cases"},
//	})
//	res, _ := tsexplain.Explain(rel, tsexplain.Query{
//		Measure: "cases",
//		Agg:     tsexplain.Sum,
//	}, tsexplain.DefaultOptions())
//	for _, seg := range res.Segments {
//		fmt.Printf("%s ~ %s\n", seg.StartLabel, seg.EndLabel)
//		for _, e := range seg.Top {
//			fmt.Printf("  %s %s (γ=%.0f)\n", e.Predicates, e.Effect, e.Gamma)
//		}
//	}
//
// The zero Options value runs VanillaTSExplain (no optimizations);
// DefaultOptions enables the paper's support filter, guess-and-verify,
// and sketching, which together speed the engine up by an order of
// magnitude with negligible effect on quality (Section 7.5).
package tsexplain

import (
	"io"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/relation"
	"repro/internal/segment"
)

// Re-exported data-model types.
type (
	// Relation is the in-memory table TSExplain explains.
	Relation = relation.Relation
	// Builder incrementally assembles a Relation.
	Builder = relation.Builder
	// CSVSpec maps a CSV file onto a Relation.
	CSVSpec = relation.CSVSpec
	// AggFunc is a decomposable aggregate (SUM, COUNT, AVG).
	AggFunc = relation.AggFunc
	// Conjunction is a conjunction of attribute=value predicates.
	Conjunction = relation.Conjunction
)

// Re-exported engine types.
type (
	// Query identifies the aggregated series and explain-by attributes.
	Query = core.Query
	// Options bundles every engine tunable.
	Options = core.Options
	// Result is the evolving-explanations output.
	Result = core.Result
	// Segment is one period with consistent top explanations.
	Segment = core.Segment
	// Explanation is one reported contributor.
	Explanation = core.Explanation
	// Timings is the per-module latency breakdown.
	Timings = core.Timings
	// Stats reports workload statistics (ε, filtered ε, n, ...).
	Stats = core.Stats
	// Engine is the reusable explainer for one relation and query.
	Engine = core.Engine
	// Incremental is the real-time extension for growing series.
	Incremental = core.Incremental
	// AttributeScore ranks a dimension for explain-by recommendation.
	AttributeScore = core.AttributeScore
	// Effect is a change effect (+/-).
	Effect = explain.Effect
	// Metric is a difference metric γ.
	Metric = explain.Metric
	// VarianceKind selects the within-segment variance design.
	VarianceKind = segment.VarianceKind
	// SketchConfig tunes the sketching optimization.
	SketchConfig = segment.SketchConfig
)

// Aggregate functions.
const (
	// Sum aggregates with SUM(M).
	Sum = relation.Sum
	// Count aggregates with COUNT(M).
	Count = relation.Count
	// Avg aggregates with AVG(M).
	Avg = relation.Avg
)

// Difference metrics.
const (
	// AbsoluteChange is the paper's default metric (Definition 3.2).
	AbsoluteChange = explain.AbsoluteChange
	// RelativeChange normalizes by the overall change.
	RelativeChange = explain.RelativeChange
	// RiskRatio compares slice shares between the endpoints.
	RiskRatio = explain.RiskRatio
)

// Change effects.
const (
	// Increase marks slices that push the KPI change upward.
	Increase = explain.Increase
	// Decrease marks slices that push the KPI change downward.
	Decrease = explain.Decrease
)

// Variance designs (Section 4.2.2). Tse is the paper's proposal; the
// others exist for the effectiveness comparison.
const (
	// Tse is TSExplain's two-way NDCG variance.
	Tse = segment.Tse
	// Dist1 uses only object-explains-centroid NDCG.
	Dist1 = segment.Dist1
	// Dist2 uses only centroid-explains-object NDCG.
	Dist2 = segment.Dist2
	// AllPair averages distances over all object pairs.
	AllPair = segment.AllPair
)

// DefaultOptions returns the fully optimized configuration (filter +
// guess-and-verify + sketching), the setup the paper recommends for
// interactive use.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewBuilder starts building a relation in memory.
func NewBuilder(name, timeName string, dimNames, measureNames []string) *Builder {
	return relation.NewBuilder(name, timeName, dimNames, measureNames)
}

// ReadCSV loads a relation from CSV data with a header row. It accepts
// exactly what encoding/csv's Reader accepts at its defaults: comma
// separators, quoted fields with "" escapes and embedded commas or
// newlines, blank lines skipped, and every record as wide as the header.
func ReadCSV(src io.Reader, spec CSVSpec) (*Relation, error) {
	return relation.ReadCSV(src, spec)
}

// WriteCSV writes a relation as CSV.
func WriteCSV(dst io.Writer, r *Relation) error {
	return relation.WriteCSV(dst, r)
}

// NewEngine builds a reusable engine: candidate enumeration and series
// precompute happen here, so repeated Explain calls amortize them.
func NewEngine(rel *Relation, q Query, opts Options) (*Engine, error) {
	return core.NewEngine(rel, q, opts)
}

// Explain runs the full pipeline once: precompute, per-segment top
// explanations, explanation-aware K-segmentation, and (unless Options.K
// is set) elbow-method selection of K.
func Explain(rel *Relation, q Query, opts Options) (*Result, error) {
	eng, err := core.NewEngine(rel, q, opts)
	if err != nil {
		return nil, err
	}
	return eng.Explain()
}

// NewIncremental starts a real-time explainer over the initial snapshot
// and returns the first result; feed extended snapshots to Update as new
// data arrives (Section 8).
func NewIncremental(rel *Relation, q Query, opts Options) (*Incremental, *Result, error) {
	return core.NewIncremental(rel, q, opts)
}

// RecommendExplainBy ranks the relation's dimension attributes by how
// well their slices explain the series' movements, implementing the
// explain-by recommendation the paper lists as future work. Use it to
// pre-select Query.ExplainBy when the schema is wide.
func RecommendExplainBy(rel *Relation, q Query) ([]AttributeScore, error) {
	return core.RecommendExplainBy(rel, q)
}
