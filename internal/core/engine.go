// Package core implements the TSExplain engine: the three-module pipeline
// of Figure 7 (precompute difference scores → Cascading Analysts →
// K-Segmentation), the optimization toggles of Section 5.3 and 7.5.1
// (support filter, guess-and-verify, sketching), the optimal selection of
// K via the elbow method (Section 6), and the real-time incremental
// extension sketched in Section 8.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/explain"
	"repro/internal/relation"
	"repro/internal/segment"
)

// Query identifies the aggregated time series to explain: the group-by
// query SELECT T, f(M) FROM R GROUP BY T plus the explain-by attributes.
type Query struct {
	// Measure is the measure attribute M.
	Measure string
	// Agg is the aggregate function f.
	Agg relation.AggFunc
	// ExplainBy lists the explain-by attributes A; empty means every
	// dimension attribute.
	ExplainBy []string
}

// Options bundles every tunable of the engine. The zero value gives the
// paper's defaults with all optimizations disabled (VanillaTSExplain);
// DefaultOptions returns the fully optimized configuration.
type Options struct {
	// M is the number of explanations per segment (default 3).
	M int
	// MaxOrder is the explanation order threshold β̄ (default 3).
	MaxOrder int
	// K fixes the segment count; 0 selects K automatically with the
	// elbow method, up to 20 segments.
	K int
	// VarianceKind selects the within-segment variance design (default
	// tse, the paper's proposal).
	VarianceKind segment.VarianceKind
	// FilterRatio enables the support filter when positive: candidates
	// whose series never reaches FilterRatio of the overall series are
	// dropped (the paper's default optimization uses 0.001).
	FilterRatio float64
	// UseGuessVerify enables optimization O1 (Section 5.3.1).
	UseGuessVerify bool
	// GuessInit is the initial guess size m̄ (default 30).
	GuessInit int
	// UseSketch enables optimization O2 (Section 5.3.2).
	UseSketch bool
	// Sketch tunes the sketching parameters; zero values use the paper's
	// defaults (L = min(0.05n, 20), |S| = 3n/L).
	Sketch segment.SketchConfig
	// SmoothWindow applies a moving average before explaining (Section
	// 7.4); 0 disables.
	SmoothWindow int
	// Approx enables the anytime approximate explanation path for
	// high-cardinality candidate universes: solves run against a pruned
	// top-M candidate set with a reported per-segment attribution-error
	// bound instead of scoring all ε candidates per segment.
	Approx ApproxOptions
}

// kMax caps the K the elbow method considers: the paper's
// user-perception limit of 20 segments.
const kMax = 20

// DefaultOptions returns the paper's fully optimized configuration:
// support filter at 0.001, guess-and-verify, and sketching all enabled.
func DefaultOptions() Options {
	return Options{
		FilterRatio:    0.001,
		UseGuessVerify: true,
		UseSketch:      true,
	}
}

func (o *Options) setDefaults() {
	if o.M <= 0 {
		o.M = 3
	}
	if o.MaxOrder <= 0 {
		o.MaxOrder = 3
	}
	if o.GuessInit <= 0 {
		o.GuessInit = 30
	}
	if o.Approx.Enabled {
		if o.Approx.MaxCandidates <= 0 {
			o.Approx.MaxCandidates = 4096
		}
		if o.Approx.Epsilon <= 0 {
			o.Approx.Epsilon = 0.05
		}
	}
}

// Timings is the latency breakdown of Figure 15. The engine runs on the
// caller's goroutine, so every field is wall-clock time and Total is the
// end-to-end latency.
type Timings struct {
	// Precompute covers candidate enumeration, series construction,
	// smoothing, and the support filter (module a).
	Precompute time.Duration
	// Cascading covers every Cascading Analysts solve (module b).
	Cascading time.Duration
	// Segmentation covers distances, variances, the segmentation DP, and
	// K selection (module c).
	Segmentation time.Duration
}

// Total returns the end-to-end latency.
func (t Timings) Total() time.Duration {
	return t.Precompute + t.Cascading + t.Segmentation
}

// Stats reports the workload statistics of Table 6 plus solver counters.
type Stats struct {
	// Epsilon is the total candidate count ε.
	Epsilon int
	// FilteredEpsilon is the candidate count after the support filter
	// (equal to Epsilon when the filter is off).
	FilteredEpsilon int
	// N is the series length.
	N int
	// CASolves counts distinct segments whose top-explanations were
	// derived.
	CASolves int
	// GuessRounds totals guess-and-verify rounds (0 without O1).
	GuessRounds int
	// SketchSize is the number of candidate cut positions after
	// sketching (N without O2).
	SketchSize int
}

// Explanation is one reported contributor for a segment.
type Explanation struct {
	// Predicates renders the conjunction, e.g. "state=NY" or
	// "Bottle Volume (ml)=1750 & Pack=6".
	Predicates string
	// Attrs holds the attribute=value pairs of the conjunction.
	Attrs map[string]string
	// Path is the root-to-self taxonomy value chain of the explanation's
	// deepest hierarchy predicate (["TX", "Houston"]); nil when the
	// explanation has no predicate over a declared hierarchy.
	Path []string
	// Gamma is the difference score γ(E) over the segment.
	Gamma float64
	// Effect is the change effect τ(E): + or -.
	Effect explain.Effect
	// Values is the explanation's aggregated sub-series over the segment
	// (inclusive endpoints), the trendline of Figure 2.
	Values []float64
}

// Segment is one reported period with consistent top explanations.
type Segment struct {
	// Start and End are point positions into the aggregated series
	// (inclusive).
	Start, End int
	// StartLabel and EndLabel are the corresponding time labels.
	StartLabel, EndLabel string
	// Top holds the top-m non-overlapping explanations, ranked by γ.
	Top []Explanation
	// ErrBound is the reported relative attribution-error bound of the
	// approximate mode: the exact optimal attribution for this segment
	// exceeds the reported one by at most this fraction of itself. Always
	// 0 in exact mode.
	ErrBound float64
	// Other aggregates every record the reported explanations do not
	// cover (the approximate mode's residual): Top plus Other reproduce
	// the overall series over the segment exactly. Nil in exact mode.
	Other *Explanation
}

// Result is the output of one Explain call.
type Result struct {
	// K is the chosen segment count.
	K int
	// AutoK reports whether K was selected by the elbow method.
	AutoK bool
	// Segments holds the K segments in time order.
	Segments []Segment
	// TotalVariance is the objective value of the chosen scheme.
	TotalVariance float64
	// KVariance[k] is the optimal total variance at k segments (the
	// K-Variance curve; index 0 unused, +Inf where infeasible).
	KVariance []float64
	// Series is the aggregated time series that was explained (after
	// smoothing, if any).
	Series []float64
	// Labels are the series' time labels.
	Labels []string
	// Timings is the latency breakdown.
	Timings Timings
	// Stats reports workload statistics.
	Stats Stats
	// Approx reports what the approximate path did; nil in exact mode.
	Approx *ApproxInfo
}

// Cuts returns the result's cut positions including endpoints.
func (r *Result) Cuts() []int {
	if len(r.Segments) == 0 {
		return nil
	}
	out := make([]int, 0, len(r.Segments)+1)
	out = append(out, r.Segments[0].Start)
	for _, s := range r.Segments {
		out = append(out, s.End)
	}
	return out
}

// Engine explains one aggregated time series. Construction runs the
// precompute module; Explain runs Cascading Analysts and K-Segmentation.
// An Engine is not safe for concurrent use.
type Engine struct {
	rel      *relation.Relation
	query    Query
	opts     Options
	u        *explain.Universe
	allowed  []bool
	filtered int // candidates surviving the filter, counted once
	// firstKeep[id] is the first position at which candidate id passes
	// the support filter (-1: filtered out); the append path uses it to
	// refresh the filter by rescanning only the changed suffix.
	firstKeep []int
	exp       *segment.Explainer
	// vc is the persistent variance calculator: variances of committed
	// history survive across Explain calls and streaming appends, so an
	// update only recomputes quantities the new data touches.
	vc *segment.VarCalc
	// approx is the cached candidate ranking of the approximate path;
	// nil until the first approximate explain, dropped on append.
	approx *approxState

	precompute time.Duration
}

// NewEngine builds the engine: it enumerates candidate explanations,
// precomputes their series, applies smoothing and the support filter.
func NewEngine(rel *relation.Relation, q Query, opts Options) (*Engine, error) {
	return newEngine(nil, rel, q, opts, false)
}

// NewEngineCtx is NewEngine with a cancellation context: candidate
// enumeration polls ctx between units of work and aborts with ctx's error
// when it is cancelled, so a request deadline bounds the expensive
// universe build instead of letting it run to completion.
func NewEngineCtx(ctx context.Context, rel *relation.Relation, q Query, opts Options) (*Engine, error) {
	return newEngine(ctx, rel, q, opts, false)
}

// ctxCancelFunc adapts a context into the polling hook the lower layers
// take; nil contexts poll as never-cancelled.
func ctxCancelFunc(ctx context.Context) func() error {
	if ctx == nil {
		return nil
	}
	return ctx.Err
}

// newEngine builds the universe and finishes the engine; streaming keeps
// the universe's append-path state for Incremental.
func newEngine(ctx context.Context, rel *relation.Relation, q Query, opts Options, streaming bool) (*Engine, error) {
	opts.setDefaults()
	start := time.Now()
	u, err := explain.NewUniverse(rel, explain.Config{
		Measure:   q.Measure,
		Agg:       q.Agg,
		ExplainBy: q.ExplainBy,
		MaxOrder:  opts.MaxOrder,
		Streaming: streaming,
		Cancel:    ctxCancelFunc(ctx),
	})
	if err != nil {
		return nil, err
	}
	return finishEngine(u, rel, q, opts, start)
}

// NewEngineFromUniverse builds an engine around an already materialized
// candidate universe — the warm-restart path. The universe typically
// comes from a catalog snapshot (explain.DecodeUniverseSnapshot), so the
// expensive precompute group-by and planning never run; smoothing and the
// support filter still run here, per the requested options, on the
// restored raw series. The universe must match the query exactly (same
// measure, aggregate, explain-by set, and order threshold) — on any
// mismatch an error is returned and the caller should fall back to
// NewEngine. The engine takes ownership of u: it must not be shared with
// another engine (smoothing mutates the universe's active series views).
func NewEngineFromUniverse(u *explain.Universe, q Query, opts Options) (*Engine, error) {
	opts.setDefaults()
	start := time.Now()
	rel := u.Relation()
	if m := rel.MeasureIndex(q.Measure); m < 0 || m != u.MeasureIndex() {
		return nil, fmt.Errorf("core: universe aggregates measure %d, query wants %q", u.MeasureIndex(), q.Measure)
	}
	if u.Agg() != q.Agg {
		return nil, fmt.Errorf("core: universe aggregate %v, query wants %v", u.Agg(), q.Agg)
	}
	wantBy := make([]int, 0, len(q.ExplainBy))
	if len(q.ExplainBy) == 0 {
		for i := 0; i < rel.NumDims(); i++ {
			wantBy = append(wantBy, i)
		}
	} else {
		for _, name := range q.ExplainBy {
			d := rel.DimIndex(name)
			if d < 0 {
				return nil, fmt.Errorf("core: unknown explain-by attribute %q", name)
			}
			wantBy = append(wantBy, d)
		}
		sort.Ints(wantBy)
	}
	gotBy := u.ExplainBy()
	if len(gotBy) != len(wantBy) {
		return nil, fmt.Errorf("core: universe explains by %d attributes, query wants %d", len(gotBy), len(wantBy))
	}
	for i := range gotBy {
		if gotBy[i] != wantBy[i] {
			return nil, fmt.Errorf("core: universe explain-by set differs from the query's")
		}
	}
	wantOrder := opts.MaxOrder
	if wantOrder > len(wantBy) {
		wantOrder = len(wantBy)
	}
	if u.MaxOrder() != wantOrder {
		return nil, fmt.Errorf("core: universe order threshold %d, query wants %d", u.MaxOrder(), wantOrder)
	}
	return finishEngine(u, rel, q, opts, start)
}

// finishEngine runs everything after universe materialization — the tail
// of the precompute module (smoothing, support filter) plus explainer
// construction — shared by the from-relation constructors and the
// from-snapshot path.
func finishEngine(u *explain.Universe, rel *relation.Relation, q Query, opts Options, start time.Time) (*Engine, error) {
	if opts.SmoothWindow > 1 {
		u.Smooth(opts.SmoothWindow)
	}
	e := &Engine{rel: rel, query: q, opts: opts, u: u}
	e.refreshFilter(0)
	e.exp = segment.NewExplainer(u, segment.ExplainerConfig{
		M:              opts.M,
		Allowed:        e.allowed,
		UseGuessVerify: opts.UseGuessVerify,
		GuessInit:      opts.GuessInit,
	})
	e.precompute = time.Since(start)
	return e, nil
}

// refreshFilter is the support-filter pass a fresh build runs from 0 and
// an append runs from the first position the append changed. It grows
// firstKeep and allowed to the candidate count, rescans from that
// position every candidate not known to qualify before it, and recounts
// the survivors. It returns the first position with mass of an existing
// candidate whose filter status flipped, or from when none flipped
// before it.
func (e *Engine) refreshFilter(from int) int {
	nc := e.u.NumCandidates()
	if e.opts.FilterRatio <= 0 {
		e.filtered = nc
		return from
	}
	old := len(e.firstKeep)
	// allowed stays non-nil even over no candidates: nil would admit every
	// candidate a later append registers.
	if e.allowed == nil || nc > old {
		firstKeep := make([]int, nc)
		copy(firstKeep, e.firstKeep)
		for id := old; id < nc; id++ {
			firstKeep[id] = -1
		}
		allowed := make([]bool, nc)
		copy(allowed, e.allowed)
		e.firstKeep, e.allowed = firstKeep, allowed
	}
	totals := e.u.TotalValues()
	e.filtered = 0
	flipped := from
	for id := 0; id < nc; id++ {
		fk := e.firstKeep[id]
		if fk < 0 || fk >= from {
			fk = e.u.FirstQualifying(id, from, e.opts.FilterRatio, totals)
			e.firstKeep[id] = fk
		}
		keep := fk >= 0
		// A candidate crossing the support threshold (either way)
		// invalidates cached explanations — segments solved under the old
		// selectable set may rank differently now — but only from its
		// first position with any mass: while its series is zero its γ is
		// zero at every segment endpoint, so it can neither be selected
		// nor change what was. A slice born in a recent delta (FL
		// appearing mid-stream) that crosses the threshold later therefore
		// invalidates only from its birth, and the usual case — no flip at
		// all — invalidates nothing extra.
		if id < old && e.allowed[id] != keep {
			series := e.u.Candidate(id).Series
			for t := 0; t < flipped; t++ {
				if series[t] != (relation.SumCount{}) {
					flipped = t
					break
				}
			}
		}
		e.allowed[id] = keep
		if keep {
			e.filtered++
		}
	}
	return flipped
}

// ingestAppended consumes relation rows appended (via Relation.AppendRows)
// since the engine last saw the relation: the universe extends in place
// from just the delta, and the support filter refreshes by rescanning
// only positions the delta could have changed. The per-segment
// explanation cache keeps every still-valid entry — candidate IDs are
// stable under the append path, so no remapping happens.
func (e *Engine) ingestAppended() (explain.AppendInfo, error) {
	start := time.Now()
	info, err := e.u.Append()
	if err != nil {
		return info, err
	}
	seriesFrom := info.ChangedFrom
	info.ChangedFrom = e.refreshFilter(info.ChangedFrom)
	if e.approx != nil {
		// Appended data shifts the contribution bounds, so the pruned
		// selection is stale: clear the restriction (dropping caches
		// solved under it) before the explainer refreshes, so it refreshes
		// the filter's set, and let the next approximate explain re-rank.
		e.approx = nil
		e.exp.SetRestriction(nil)
		e.vc = nil
	}
	// Caches grow in place; the score table rewrites just the rows the
	// append changed, unless the survivor set flipped.
	e.exp.Appended(e.allowed, seriesFrom)
	e.precompute = time.Since(start)
	return info, nil
}

// InvalidateFrom drops every cached per-segment quantity — top
// explanations, ideal DCGs, and variances — touching a position at or
// after p. The real-time extension calls it with the first changed
// position after each append.
func (e *Engine) InvalidateFrom(p int) {
	e.exp.InvalidateFrom(p)
	if e.vc != nil {
		e.vc.InvalidateFrom(p)
	}
}

// Universe exposes the candidate universe (for experiments and examples
// that plot per-slice series).
func (e *Engine) Universe() *explain.Universe { return e.u }

// Explainer exposes the per-segment explanation cache.
func (e *Engine) Explainer() *segment.Explainer { return e.exp }

// FilteredCount returns the number of candidates surviving the filter,
// counted once at construction rather than rescanned per call.
func (e *Engine) FilteredCount() int { return e.filtered }

// ResidentBytes estimates the engine's heap-resident cost in bytes: the
// candidate universe's series arenas, the Cascading Analysts score table
// as currently built, the per-segment explanation cache's triangle, and
// the variance calculator's caches once an explain created it.
// Solves build the table lazily and the approximate path swaps it per
// round, so the figure changes with use; the serving layer's registry
// re-reads it after every request that drives the engine to enforce a
// memory budget across pooled engines. It is an estimate, tuned for
// consistent relative cost rather than byte-exact accounting. When the
// candidate arena aliases a snapshot mapping, the arena is excluded here
// and reported by MappedBytes instead: resident bytes are charged against
// the serving memory budget, mapped bytes are kernel-evictable and only
// tracked.
func (e *Engine) ResidentBytes() int64 {
	b := e.u.ApproxBytes()
	// Flat segment-cache triangle (n ≤ 1024): one generation-tagged slot
	// per (c, t) pair; cached cascading results add to it as segments are
	// solved, estimated at one picked-explanation record per slot.
	n := int64(e.u.NumTimestamps())
	b += n * (n + 1) / 2 * 24
	// Filter bitmaps and first-qualifying positions.
	b += int64(len(e.allowed)) + int64(len(e.firstKeep))*8
	if e.exp != nil {
		b += e.exp.ScoreTableBytes()
	}
	if e.vc != nil {
		b += e.vc.Bytes()
	}
	return b
}

// MappedBytes reports the size of the candidate arena when it aliases a
// read-only snapshot mapping, and 0 for heap-backed engines.
func (e *Engine) MappedBytes() int64 { return e.u.MappedBytes() }

// ArenaMapped reports whether this engine reads candidate series off a
// memory-mapped snapshot arena.
func (e *Engine) ArenaMapped() bool { return e.u.ArenaMapped() }

// Explain runs the full pipeline and reports the evolving explanations.
func (e *Engine) Explain() (*Result, error) {
	return e.explainPositionsK(nil, nil, e.opts.K)
}

// ExplainWithKCtx runs the full pipeline with the given segment-count
// override: k > 0 fixes K, k ≤ 0 selects it with the elbow method. It
// lets one engine serve requests with different K without being rebuilt —
// the per-segment explanation cache is K-independent, so everything after
// the first call reuses it. The pipeline polls ctx between per-segment
// solves (the unit of expensive work) and aborts with ctx's error once it
// is cancelled. An aborted explain leaves the engine consistent —
// segments solved before the cancellation stay cached and benefit the
// next call.
func (e *Engine) ExplainWithKCtx(ctx context.Context, k int) (*Result, error) {
	return e.explainPositionsK(ctx, nil, k)
}

// explainPositionsK routes one explain, with segmentation restricted to
// the given cut positions (nil means engine-managed: all positions, or
// the sketch when O2 is on), to the exact pipeline or, under
// Options.Approx, the anytime approximate path: it runs the exact
// pipeline against a pruned candidate set, annotates error bounds, and
// refines until the bound meets Epsilon or a budget runs out. A deadline
// that expires mid-refinement returns the best completed round instead
// of an error — the serving layer degrades to a coarser answer rather
// than shedding the request.
func (e *Engine) explainPositionsK(ctx context.Context, positions []int, fixedK int) (*Result, error) {
	if e.opts.Approx.Enabled {
		return e.runApproxRounds(ctx, positions, fixedK, false, nil)
	}
	return e.explainExactK(ctx, positions, fixedK)
}

// explainExactK is the pipeline body behind Explain, ExplainWithKCtx,
// and the incremental position-restricted path.
func (e *Engine) explainExactK(ctx context.Context, positions []int, fixedK int) (*Result, error) {
	cancel := ctxCancelFunc(ctx)
	if cancel != nil {
		if err := cancel(); err != nil {
			return nil, err
		}
	}
	n := e.u.NumTimestamps()
	if n < 2 {
		return nil, fmt.Errorf("core: series has %d points, nothing to explain", n)
	}
	if e.vc == nil {
		e.vc = segment.NewVarCalc(e.exp, e.opts.VarianceKind)
	}
	vc := e.vc

	wallStart := time.Now()
	_, caBefore, _ := e.exp.Stats()

	coarsened := false
	if positions == nil && e.opts.UseSketch {
		sketch, err := segment.SelectSketch(vc, e.opts.Sketch)
		if err != nil {
			return nil, err
		}
		positions = sketch
		if n > segment.CoarseObjectsAbove && len(sketch) < n {
			// Long series: phase 2 treats sketch intervals as objects.
			vc.SetObjectPositions(sketch)
			coarsened = true
		}
	}
	if !coarsened && vc.HasObjectPositions() {
		// A previous call coarsened the persistent calculator; restore
		// unit objects (this resets its caches).
		vc.SetObjectPositions(nil)
	}
	dpRes, err := segment.Optimize(vc, segment.Options{
		KMax:      kMax,
		Positions: positions,
		Cancel:    cancel,
	})
	if err != nil {
		return nil, err
	}
	curve := segment.KVarianceCurve(dpRes)

	k := fixedK
	autoK := false
	if k <= 0 {
		k = segment.ElbowK(curve)
		autoK = true
	}
	scheme, ok := dpRes.Scheme(k)
	if !ok {
		// Requested K infeasible under the position restriction: fall
		// back to the largest feasible K.
		for kk := len(dpRes.ByK) - 1; kk >= 1; kk-- {
			if s, feasible := dpRes.Scheme(kk); feasible {
				scheme, k, ok = s, kk, true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("core: no feasible segmentation")
		}
	}

	res := &Result{
		K:             k,
		AutoK:         autoK,
		TotalVariance: scheme.TotalVariance,
		KVariance:     curve,
		Series:        e.u.TotalValues(),
		Labels:        e.rel.TimeLabels(),
	}
	for i := 1; i < len(scheme.Cuts); i++ {
		if cancel != nil {
			if err := cancel(); err != nil {
				return nil, err
			}
		}
		res.Segments = append(res.Segments, e.buildSegment(scheme.Cuts[i-1], scheme.Cuts[i]))
	}

	wall := time.Since(wallStart)
	solves, caTotal, rounds := e.exp.Stats()
	caDelta := caTotal - caBefore
	res.Timings = Timings{
		Precompute:   e.precompute,
		Cascading:    caDelta,
		Segmentation: wall - caDelta,
	}
	res.Stats = Stats{
		Epsilon:         e.u.NumCandidates(),
		FilteredEpsilon: e.FilteredCount(),
		N:               n,
		CASolves:        solves,
		GuessRounds:     rounds,
		SketchSize:      n,
	}
	if positions != nil {
		res.Stats.SketchSize = len(positions)
	}
	return res, nil
}

// buildSegment assembles the reported segment [a, b].
func (e *Engine) buildSegment(a, b int) Segment {
	seg := Segment{
		Start:      a,
		End:        b,
		StartLabel: e.rel.TimeLabel(a),
		EndLabel:   e.rel.TimeLabel(b),
	}
	top := e.exp.TopM(a, b)
	for _, p := range top.Explanations {
		cand := e.u.Candidate(p.ID)
		attrs := make(map[string]string, cand.Conj.Order())
		for _, pr := range cand.Conj {
			attrs[e.rel.Dim(pr.Dim).Name()] = e.rel.Dim(pr.Dim).Value(pr.Value)
		}
		vals := e.u.CandidateValues(p.ID)[a : b+1]
		seg.Top = append(seg.Top, Explanation{
			Predicates: cand.Conj.String(e.rel),
			Attrs:      attrs,
			Path:       e.u.LevelPath(p.ID),
			Gamma:      p.Gamma,
			Effect:     p.Effect,
			Values:     append([]float64(nil), vals...),
		})
	}
	return seg
}

// TopExplanations exposes the two-relations-diff building block
// (Section 3.1): the top-m non-overlapping explanations for the single
// segment [from, to].
func (e *Engine) TopExplanations(from, to int) ([]Explanation, error) {
	n := e.u.NumTimestamps()
	if from < 0 || to >= n || from >= to {
		return nil, fmt.Errorf("core: invalid segment [%d, %d] of %d points", from, to, n)
	}
	return e.buildSegment(from, to).Top, nil
}
