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
// stopped allocating per call. The same two-allocation pin holds for
// liquor's wide solves over its 2,820-column table.
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
	pinGuessVerifyAllocs(t, d, 0, func(n int) [][2]int { return [][2]int{{0, n - 1}, {10, 40}, {100, 101}, {200, 260}} })
	pinGuessVerifyAllocs(t, datasets.Liquor(), 2820, func(n int) [][2]int { return [][2]int{{0, n - 1}, {10, 40}, {60, 61}, {30, 90}} })
}

// pinGuessVerifyAllocs builds d's engine with its default options and
// checks that a warmed GuessVerify over each segment allocates exactly the
// Result it returns. Every segment must verify in one guess round: each
// failed round allocates the Result it discards. width, when non-zero,
// pins the score table's column count.
func pinGuessVerifyAllocs(t *testing.T, d *datasets.Dataset, width int, segments func(n int) [][2]int) {
	t.Helper()
	opts := DefaultOptions()
	opts.MaxOrder = d.MaxOrder
	opts.SmoothWindow = d.SmoothWindow
	eng, err := NewEngine(d.Rel, Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab := eng.Explainer().ScoreTable()
	if width != 0 && len(tab.IDs()) != width {
		t.Fatalf("%s: score table has %d columns, want %d", d.Name, len(tab.IDs()), width)
	}
	s := cascading.NewSolver(eng.Universe(), eng.opts.M)
	segs := segments(eng.Universe().NumTimestamps())
	for _, seg := range segs { // warm the scratch
		s.GuessVerify(seg[0], seg[1], 30, tab)
	}
	for _, seg := range segs {
		res, rounds := s.GuessVerify(seg[0], seg[1], 30, tab)
		if len(res.Explanations) == 0 || rounds != 1 {
			t.Fatalf("%s: segment %v has %d explanations after %d guess rounds, want some after 1", d.Name, seg, len(res.Explanations), rounds)
		}
		solves := testing.AllocsPerRun(50, func() { s.GuessVerify(seg[0], seg[1], 30, tab) })
		if solves != 2 {
			t.Errorf("%s: a warmed GuessVerify over %v allocates %.0f times, want 2 (the Result's Best and Explanations)", d.Name, seg, solves)
		}
	}
}
