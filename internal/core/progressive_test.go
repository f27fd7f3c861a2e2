package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// fingerprint renders a result's analytical content — segmentation,
// variance, attributions, series — with Go's shortest round-trip float
// formatting (%v), so equal fingerprints mean bit-identical float64s.
// Wall clock fields (Timings, Stats) are zeroed out.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	r := *res
	r.Timings = Timings{}
	r.Stats = Stats{}
	return fmt.Sprintf("%+v", r)
}

type roundRec struct {
	res   *Result
	final bool
}

func collectRounds(t *testing.T, eng *Engine, ctx context.Context, k int) ([]roundRec, *Result, error) {
	t.Helper()
	var rounds []roundRec
	res, err := eng.ExplainProgressive(ctx, k, func(r *Result, final bool) error {
		rounds = append(rounds, roundRec{res: r, final: final})
		return nil
	})
	return rounds, res, err
}

// TestProgressiveRefinesToExact is the tentpole contract: the stream
// starts from the coarse anytime round, every later approximate round's
// reported bound is no worse, and the final round is bit-identical to
// what a plain exact engine computes — because it IS the plain exact
// pipeline, restriction cleared.
func TestProgressiveRefinesToExact(t *testing.T) {
	// The flat spike field keeps the error bound provably positive until
	// every candidate is selectable, so the ramp genuinely refines.
	rel := spikeFieldRel(t)
	q := spikeFieldQuery()

	opts := DefaultOptions()
	opts.K = 3
	opts.Approx = ApproxOptions{Enabled: true, MaxCandidates: 64, Epsilon: 0.05}
	eng, err := NewEngine(rel, q, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rounds, res, err := collectRounds(t, eng, context.Background(), 3)
	if err != nil {
		t.Fatalf("progressive: %v", err)
	}
	if len(rounds) < 2 {
		t.Fatalf("got %d rounds, want at least a coarse round and the exact one", len(rounds))
	}
	for i, r := range rounds {
		if got, want := r.final, i == len(rounds)-1; got != want {
			t.Fatalf("round %d: final = %v, want %v", i, got, want)
		}
	}
	last := rounds[len(rounds)-1]
	if last.res != res {
		t.Fatal("returned result is not the last emitted round")
	}
	if last.res.Approx != nil {
		t.Fatalf("final round still carries ApproxInfo: %+v", last.res.Approx)
	}

	// Approximate rounds refine: bounds never get worse, and the ramp
	// actually tightened somewhere (the coarse start is not already 0).
	prev := -1.0
	for i, r := range rounds[:len(rounds)-1] {
		if r.res.Approx == nil {
			t.Fatalf("non-final round %d carries no ApproxInfo", i)
		}
		if b := r.res.Approx.MaxErrBound; prev >= 0 && b > prev+1e-12 {
			t.Fatalf("round %d bound %g worse than previous %g", i, b, prev)
		} else {
			prev = b
		}
		if r.res.Approx.Truncated {
			t.Fatalf("round %d flagged Truncated without any deadline", i)
		}
	}
	if first := rounds[0].res.Approx; first.MaxErrBound <= 0 {
		t.Fatalf("coarse first round bound %g, want > 0 (scenario too easy to exercise refinement)",
			first.MaxErrBound)
	}

	// Bit-identity: the final round against a fresh exact-mode engine.
	eopts := DefaultOptions()
	eopts.K = 3
	exact, err := NewEngine(rel, q, eopts)
	if err != nil {
		t.Fatalf("exact engine: %v", err)
	}
	want, err := exact.ExplainWithKCtx(context.Background(), 3)
	if err != nil {
		t.Fatalf("exact explain: %v", err)
	}
	if got, wantFp := fingerprint(t, last.res), fingerprint(t, want); got != wantFp {
		t.Errorf("final progressive round differs from plain exact explain\n got: %s\nwant: %s", got, wantFp)
	}

	// The engine stays usable afterwards: a synchronous approximate
	// explain restarts the anytime ramp from the coarse budget.
	res2, err := eng.Explain()
	if err != nil {
		t.Fatalf("post-progressive explain: %v", err)
	}
	if res2.Approx == nil {
		t.Fatal("post-progressive approximate explain carries no ApproxInfo")
	}
}

// TestProgressiveExactEngineSingleRound: with the approximate path
// disabled the stream is one exact round, final immediately.
func TestProgressiveExactEngineSingleRound(t *testing.T) {
	eng, err := NewEngine(highCardRel(t), highCardQuery(), highCardOpts())
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rounds, res, err := collectRounds(t, eng, context.Background(), 4)
	if err != nil {
		t.Fatalf("progressive: %v", err)
	}
	if len(rounds) != 1 || !rounds[0].final || rounds[0].res != res {
		t.Fatalf("want exactly one final round, got %d (res match %v)", len(rounds), rounds[0].res == res)
	}
	if res.Approx != nil {
		t.Fatal("exact progressive round carries ApproxInfo")
	}
}

// TestProgressiveYieldErrorAborts: the sink's error stops the stream —
// the serving layer relies on this when the client disconnects.
func TestProgressiveYieldErrorAborts(t *testing.T) {
	opts := highCardOpts()
	opts.Approx = ApproxOptions{Enabled: true, MaxCandidates: 128, Epsilon: 0.05}
	eng, err := NewEngine(highCardRel(t), highCardQuery(), opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	sentinel := errors.New("client gone")
	calls := 0
	_, err = eng.ExplainProgressive(context.Background(), 4, func(r *Result, final bool) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sink's sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after aborting on the first round", calls)
	}
}

// TestProgressiveCancelTruncates: cancelling mid-stream ends it with a
// final round flagged Truncated instead of an error — degraded, not
// dropped.
func TestProgressiveCancelTruncates(t *testing.T) {
	rel := spikeFieldRel(t)
	opts := DefaultOptions()
	opts.K = 3
	opts.Approx = ApproxOptions{Enabled: true, MaxCandidates: 1 << 20, Epsilon: 0.05}
	eng, err := NewEngine(rel, spikeFieldQuery(), opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rounds []roundRec
	res, err := eng.ExplainProgressive(ctx, 3, func(r *Result, final bool) error {
		rounds = append(rounds, roundRec{res: r, final: final})
		cancel() // hang up after the first delivered round
		return nil
	})
	if err != nil {
		t.Fatalf("progressive after cancel: %v", err)
	}
	if res == nil || len(rounds) == 0 {
		t.Fatal("no rounds delivered before cancellation")
	}
	last := rounds[len(rounds)-1]
	if !last.final {
		t.Fatal("stream ended without a final round")
	}
	if last.res.Approx == nil || !last.res.Approx.Truncated {
		t.Fatalf("cancelled stream's final round not flagged Truncated: %+v", last.res.Approx)
	}
	if res != last.res {
		t.Fatal("returned result is not the truncated final round")
	}
}
