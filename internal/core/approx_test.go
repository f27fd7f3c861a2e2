package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/synth"
)

func highCardRel(t *testing.T) *relation.Relation {
	t.Helper()
	d, err := synth.HighCardinality(synth.HighCardParams{
		Users: 80, Regions: 10, Whales: 4, N: 64, Seed: 7,
	})
	if err != nil {
		t.Fatalf("highcard: %v", err)
	}
	return d.Rel
}

func highCardQuery() Query {
	return Query{Measure: "events", Agg: relation.Sum, ExplainBy: []string{"user", "region"}}
}

func highCardOpts() Options {
	opts := DefaultOptions()
	opts.MaxOrder = 2
	opts.K = 4
	return opts
}

// TestApproxWithinReportedBound is the core correctness contract of the
// approximate path: for every reported segment, the exact optimal
// attribution exceeds the approximate one by at most the reported
// relative error bound, and the reported explanations plus the residual
// reproduce the overall series exactly.
func TestApproxWithinReportedBound(t *testing.T) {
	rel := highCardRel(t)
	q := highCardQuery()

	exact, err := NewEngine(rel, q, highCardOpts())
	if err != nil {
		t.Fatalf("exact engine: %v", err)
	}
	if _, err := exact.Explain(); err != nil {
		t.Fatalf("exact explain: %v", err)
	}

	aopts := highCardOpts()
	aopts.Approx = ApproxOptions{Enabled: true, MaxCandidates: 128, Epsilon: 0.05}
	approx, err := NewEngine(rel, q, aopts)
	if err != nil {
		t.Fatalf("approx engine: %v", err)
	}
	res, err := approx.Explain()
	if err != nil {
		t.Fatalf("approx explain: %v", err)
	}
	if res.Approx == nil {
		t.Fatal("approx result carries no ApproxInfo")
	}
	if res.Approx.CandidatesUsed > 128 {
		t.Fatalf("CandidatesUsed = %d exceeds the 128 budget", res.Approx.CandidatesUsed)
	}
	if res.Approx.CandidatesUsed >= res.Approx.CandidatesEligible {
		t.Fatalf("nothing pruned (used %d of %d): scenario too small to exercise approx",
			res.Approx.CandidatesUsed, res.Approx.CandidatesEligible)
	}
	if res.Approx.Theta <= 0 {
		t.Fatalf("theta = %g, want > 0 with pruning active", res.Approx.Theta)
	}

	m := len(exact.Explainer().TopM(0, 1).Best) - 1
	for _, seg := range res.Segments {
		// Exact optimal attribution for the approximate run's own segment.
		ge := exact.Explainer().TopM(seg.Start, seg.End).Best[m]
		var ga float64
		for _, e := range seg.Top {
			ga += e.Gamma
		}
		if ge > 0 {
			actual := (ge - ga) / ge
			if actual > seg.ErrBound+1e-9 {
				t.Errorf("segment [%d,%d]: actual error %.6f exceeds reported bound %.6f (exact %g, approx %g)",
					seg.Start, seg.End, actual, seg.ErrBound, ge, ga)
			}
		}
		if seg.ErrBound > res.Approx.MaxErrBound+1e-12 {
			t.Errorf("segment bound %g exceeds reported MaxErrBound %g", seg.ErrBound, res.Approx.MaxErrBound)
		}

		// Totals stay exact: Top + Other reproduce the overall series.
		if seg.Other == nil {
			t.Fatalf("segment [%d,%d]: approx mode reported no residual", seg.Start, seg.End)
		}
		for i := 0; i <= seg.End-seg.Start; i++ {
			sum := seg.Other.Values[i]
			for _, e := range seg.Top {
				sum += e.Values[i]
			}
			want := res.Series[seg.Start+i]
			if math.Abs(sum-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("segment [%d,%d] point %d: top+other = %g, total %g",
					seg.Start, seg.End, i, sum, want)
			}
		}
	}
	if !res.Approx.Truncated && res.Approx.CandidatesUsed < res.Approx.CandidatesEligible &&
		res.Approx.CandidatesUsed < aopts.Approx.MaxCandidates &&
		res.Approx.MaxErrBound > aopts.Approx.Epsilon {
		t.Errorf("refinement stopped early: bound %g > ε %g with budget left",
			res.Approx.MaxErrBound, aopts.Approx.Epsilon)
	}
}

// TestApproxEpsilonRefinement: with an ample candidate budget the
// refinement loop must actually reach the requested epsilon.
func TestApproxEpsilonRefinement(t *testing.T) {
	rel := highCardRel(t)
	opts := highCardOpts()
	opts.Approx = ApproxOptions{Enabled: true, MaxCandidates: 1 << 20, Epsilon: 0.05}
	eng, err := NewEngine(rel, highCardQuery(), opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	res, err := eng.Explain()
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if res.Approx.MaxErrBound > 0.05 {
		t.Fatalf("MaxErrBound = %g, want ≤ 0.05 with an unbounded candidate budget", res.Approx.MaxErrBound)
	}
	if res.Approx.Truncated {
		t.Fatal("Truncated set without any time budget")
	}

	// K reuse on the same engine: a second explain with another K serves
	// from the already refined selection.
	res2, err := eng.ExplainWithKCtx(context.Background(), 6)
	if err != nil {
		t.Fatalf("explain k=6: %v", err)
	}
	if res2.Approx == nil || res2.K != 6 {
		t.Fatalf("k=6 re-explain: approx=%v k=%d", res2.Approx, res2.K)
	}
}

// spikeFieldRel builds a flat field of near-equal single-spike users: no
// candidate dominates, so any pruning leaves a provably positive error
// bound (the solver's marginal picks score below the pruning threshold θ)
// and refinement keeps going until every candidate is kept.
func spikeFieldRel(t *testing.T) *relation.Relation {
	t.Helper()
	const users, n = 200, 40
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("t%02d", i)
	}
	b := relation.NewBuilder("spikes", "T", []string{"user"}, []string{"events"})
	b.SetTimeOrder(labels)
	for i := 0; i < users; i++ {
		tt := 1 + (i*7)%(n-2)
		if err := b.Append(labels[tt], []string{fmt.Sprintf("u%03d", i)}, []float64{10 + 0.01*float64(i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	rel, err := b.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return rel
}

func spikeFieldQuery() Query {
	return Query{Measure: "events", Agg: relation.Sum, ExplainBy: []string{"user"}}
}

// TestApproxTimeBudgetTruncates: an exhausted time budget returns the
// best completed round, flagged, instead of an error.
func TestApproxTimeBudgetTruncates(t *testing.T) {
	rel := spikeFieldRel(t)
	opts := DefaultOptions()
	opts.K = 3
	// Epsilon unreachably tight on a flat spike field (the bound stays
	// positive until everything is kept) and a budget that expires
	// immediately: exactly one round runs, then refinement stops
	// gracefully.
	opts.Approx = ApproxOptions{Enabled: true, MaxCandidates: 1 << 20, Epsilon: 1e-12, TimeBudget: time.Nanosecond}
	eng, err := NewEngine(rel, spikeFieldQuery(), opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	res, err := eng.Explain()
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if res.Approx == nil || !res.Approx.Truncated {
		t.Fatalf("expected a truncated approx result, got %+v", res.Approx)
	}
	if res.Approx.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 under an expired budget", res.Approx.Rounds)
	}
	if len(res.Segments) == 0 {
		t.Fatal("truncated result carries no segments")
	}
}

// TestApproxDeadlineDegradesNotFails: a context that expires between
// refinement rounds yields the best completed round, not an error — the
// serving layer's graceful-degradation contract.
func TestApproxDeadlineDegradesNotFails(t *testing.T) {
	rel := highCardRel(t)
	opts := highCardOpts()
	opts.Approx = ApproxOptions{Enabled: true, MaxCandidates: 1 << 20, Epsilon: 1e-12}
	eng, err := NewEngine(rel, highCardQuery(), opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	// Generous enough for at least one round, far too tight to refine to
	// an impossible epsilon (which needs every candidate).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := eng.ExplainWithKCtx(ctx, 4)
	if err != nil {
		t.Fatalf("expected graceful degradation, got error: %v", err)
	}
	if res.Approx == nil {
		t.Fatal("no ApproxInfo on degraded result")
	}

	// A context already expired before the first round has nothing to
	// degrade to and must propagate the error.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	eng2, err := NewEngine(rel, highCardQuery(), opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if _, err := eng2.ExplainWithKCtx(expired, 4); err == nil {
		t.Fatal("pre-expired context: want an error, got none")
	}
}

// TestExactModeUnchanged: exact mode carries no approx annotations.
func TestExactModeUnchanged(t *testing.T) {
	rel := highCardRel(t)
	eng, err := NewEngine(rel, highCardQuery(), highCardOpts())
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	res, err := eng.Explain()
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if res.Approx != nil {
		t.Fatal("exact result carries ApproxInfo")
	}
	for _, seg := range res.Segments {
		if seg.ErrBound != 0 || seg.Other != nil {
			t.Fatal("exact segment carries approx annotations")
		}
	}
}
