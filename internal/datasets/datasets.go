// Package datasets provides deterministic simulated versions of the four
// real-world datasets in the paper's evaluation (Section 7.1 and 8):
// Covid (daily/total confirmed cases by state), S&P 500 (stock index with
// a category → subcategory → stock hierarchy), Liquor (purchase
// transactions with four explain-by attributes), and the weekly Covid
// deaths by age group and vaccination status used in the time-varying
// attribute discussion.
//
// The real datasets cannot be downloaded in this offline build, so each
// generator reproduces the published schema, cardinalities, series
// lengths, and the qualitative driver structure the paper's case studies
// rely on (which slices drive which period). Every generator is
// deterministic: the same call always returns the same relation, so
// experiments and tests are reproducible. The engine consumes these
// relations through exactly the same code path as a CSV loaded from disk.
package datasets

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/relation"
)

// Dataset bundles a generated relation with the query the paper's
// experiments run against it.
type Dataset struct {
	// Name identifies the dataset in experiment output.
	Name string
	// Rel is the generated relation. A dataset with a taxonomy declares
	// it on Rel (Relation.DeclareHierarchy).
	Rel *relation.Relation
	// Measure is the measure attribute the aggregated series uses.
	Measure string
	// Agg is the aggregate function.
	Agg relation.AggFunc
	// ExplainBy lists the explain-by attributes.
	ExplainBy []string
	// MaxOrder is the explanation order threshold β̄ for this dataset.
	MaxOrder int
	// SmoothWindow is the moving-average window applied before
	// explaining; 0 disables smoothing (Section 7.4 applies smoothing to
	// very fuzzy datasets).
	SmoothWindow int
	// ApproxMaxCandidates and ApproxEpsilon are the dataset's defaults for
	// approximate-mode requests (mode=approx); zero values fall back to
	// the engine defaults (4096 candidates, ε = 0.05). Catalog datasets
	// declare them in their manifests.
	ApproxMaxCandidates int
	ApproxEpsilon       float64
}

// dateLabels returns count consecutive daily labels starting at start, in
// ISO yyyy-mm-dd form.
func dateLabels(start time.Time, count int) []string {
	out := make([]string, count)
	for i := range out {
		out[i] = start.AddDate(0, 0, i).Format("2006-01-02")
	}
	return out
}

// spacedDateLabels returns count labels evenly spaced between start and
// end inclusive, for series whose real-world counterpart skips
// non-trading or non-reporting days.
func spacedDateLabels(start, end time.Time, count int) []string {
	out := make([]string, count)
	total := end.Sub(start)
	for i := range out {
		frac := float64(i) / float64(count-1)
		out[i] = start.Add(time.Duration(frac * float64(total))).Format("2006-01-02")
	}
	return out
}

// bump evaluates a Gaussian bump: amp·exp(−(t−center)²/(2·width²)).
// It is the building block for epidemic waves and demand surges.
func bump(t, center, width, amp float64) float64 {
	d := (t - center) / width
	return amp * math.Exp(-d*d/2)
}

// ramp evaluates a linear ramp that is 0 before from, rises to amp at to,
// and stays at amp afterwards.
func ramp(t, from, to, amp float64) float64 {
	switch {
	case t <= from:
		return 0
	case t >= to:
		return amp
	default:
		return amp * (t - from) / (to - from)
	}
}

// jitter returns a multiplicative noise factor 1 + scale·N(0,1), clamped
// to stay positive.
func jitter(rng *rand.Rand, scale float64) float64 {
	f := 1 + rng.NormFloat64()*scale
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// builtins lists the compiled-in datasets the server, the CLI and datagen
// serve by name, under their canonical names in listing order; alias is
// an alternative name, if any.
var builtins = []struct {
	name, alias string
	gen         func() *Dataset
}{
	{"covid", "covid-total", CovidTotal},
	{"covid-daily", "", CovidDaily},
	{"sp500", "", SP500},
	{"liquor", "", Liquor},
	{"vax-deaths", "", VaxDeaths},
	{"stream", "", func() *Dataset { return Stream(StreamDays) }},
}

// BuiltinNames returns the built-in datasets' canonical names in listing
// order.
func BuiltinNames() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}

// Builtin resolves a built-in dataset's canonical name or alias to the
// canonical name and the dataset's generator; ok is false for any other
// name.
func Builtin(name string) (canonical string, gen func() *Dataset, ok bool) {
	for _, b := range builtins {
		if name == b.name || b.alias != "" && name == b.alias {
			return b.name, b.gen, true
		}
	}
	return "", nil, false
}
