package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/datasets"
)

func TestNewEngineCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := datasets.VaxDeaths()
	_, err := NewEngineCtx(ctx, d.Rel, Query{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy,
	}, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExplainWithKCtxCancelled(t *testing.T) {
	d := datasets.VaxDeaths()
	eng, err := NewEngine(d.Rel, Query{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy,
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ExplainWithKCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abort left the engine consistent: an unbounded explain succeeds.
	if _, err := eng.ExplainWithKCtx(context.Background(), 0); err != nil {
		t.Fatalf("explain after aborted call: %v", err)
	}
}

// TestExplainDeadlineMidFlight cancels a liquor explain mid-computation
// (the cold per-segment solve sweep takes far longer than the deadline)
// and checks the engine both observes the deadline and stays usable.
func TestExplainDeadlineMidFlight(t *testing.T) {
	d := datasets.Liquor()
	opts := DefaultOptions()
	opts.MaxOrder = d.MaxOrder
	eng, err := NewEngine(d.Rel, Query{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = eng.ExplainWithKCtx(ctx, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The abort must be prompt — the point of the hook is that an expired
	// request stops consuming its worker slot. Allow generous slack for
	// slow CI machines: the uncancelled explain takes hundreds of ms even
	// on fast hardware.
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("cancelled explain took %v, want prompt abort", took)
	}

	// Solves cached before the abort are kept, and a later uncancelled
	// explain finishes normally on the same engine.
	res, err := eng.ExplainWithKCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("explain after aborted call: %v", err)
	}
	if res.K < 2 || len(res.Segments) != res.K {
		t.Errorf("post-abort result: K=%d segments=%d", res.K, len(res.Segments))
	}
}

// TestCancelledBuildDeterministic checks NewEngineCtx with a deadline in
// the past fails with the deadline error, not a half-built engine.
func TestCancelledBuildDeterministic(t *testing.T) {
	d := datasets.VaxDeaths()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := NewEngineCtx(ctx, d.Rel, Query{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy,
	}, DefaultOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}
