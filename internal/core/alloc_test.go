package core

import (
	"testing"

	"repro/internal/cascading"
	"repro/internal/datasets"
)

// TestCovidAllocationPins pins the allocation budget of covid's
// many-small-solves shape, where fixed costs per solve and per distance
// dominate. A warmed guess-and-verify solve allocates only the Result it
// returns — its Best vector and its ranked explanations, two allocations —
// and one cold explain (engine build included) stays under 25,000
// allocations; it took 92,572 before the solver and the distance loop
// stopped allocating per call.
func TestCovidAllocationPins(t *testing.T) {
	d := datasets.CovidTotal()
	opts := DefaultOptions()
	opts.MaxOrder = d.MaxOrder
	opts.SmoothWindow = d.SmoothWindow
	q := Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}

	explains := testing.AllocsPerRun(2, func() {
		eng, err := NewEngine(d.Rel, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Explain(); err != nil {
			t.Fatal(err)
		}
	})
	if explains >= 25000 {
		t.Errorf("one covid explain allocates %.0f times, want < 25,000", explains)
	}

	eng, err := NewEngine(d.Rel, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab := eng.Explainer().ScoreTable()
	n := eng.Universe().NumTimestamps()
	s := cascading.NewSolver(eng.Universe(), eng.opts.Metric, eng.opts.M)
	segs := [][2]int{{0, n - 1}, {10, 40}, {100, 101}, {200, 260}}
	for _, seg := range segs { // warm the scratch
		s.GuessVerify(seg[0], seg[1], 30, tab)
	}
	for _, seg := range segs {
		res, _ := s.GuessVerify(seg[0], seg[1], 30, tab)
		if len(res.Explanations) == 0 {
			t.Fatalf("segment %v has no explanations", seg)
		}
		solves := testing.AllocsPerRun(50, func() { s.GuessVerify(seg[0], seg[1], 30, tab) })
		if solves != 2 {
			t.Errorf("a warmed GuessVerify over %v allocates %.0f times, want 2 (the Result's Best and Explanations)", seg, solves)
		}
	}
}
