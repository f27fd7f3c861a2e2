package segment

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/explain"
	"repro/internal/relation"
)

// makeCatRelation builds a relation with one "category" dimension whose
// per-category time series are given explicitly, so segmentation ground
// truth is known by construction.
func makeCatRelation(t testing.TB, series map[string][]float64) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("synthetic", "t", []string{"category"}, []string{"v"})
	n := -1
	for cat, vals := range series {
		if n == -1 {
			n = len(vals)
		}
		if len(vals) != n {
			t.Fatalf("category %s has %d points, want %d", cat, len(vals), n)
		}
	}
	var labels []string
	for i := 0; i < n; i++ {
		labels = append(labels, fmt.Sprintf("%04d", i))
	}
	b.SetTimeOrder(labels)
	for cat, vals := range series {
		for i, v := range vals {
			if err := b.Append(labels[i], []string{cat}, []float64{v}); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return r
}

// twoPhase builds the canonical test dataset: category a rises during
// [0, cut], category b rises during [cut, n-1]; the ground-truth
// 2-segmentation cuts exactly at cut.
func twoPhase(t testing.TB, n, cut int) *explain.Universe {
	t.Helper()
	a := make([]float64, n)
	bseries := make([]float64, n)
	for i := 0; i < n; i++ {
		if i <= cut {
			a[i] = float64(10 * i)
			bseries[i] = 5
		} else {
			a[i] = float64(10 * cut)
			bseries[i] = 5 + float64(10*(i-cut))
		}
	}
	r := makeCatRelation(t, map[string][]float64{"a": a, "b": bseries})
	u, err := explain.NewUniverse(r, explain.Config{Measure: "v", Agg: relation.Sum})
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	return u
}

func newExplainer(t testing.TB, u *explain.Universe, cfg ExplainerConfig) *Explainer {
	t.Helper()
	return NewExplainer(u, cfg)
}

func TestUnitObjectVarianceIsZero(t *testing.T) {
	u := twoPhase(t, 20, 10)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), Tse)
	for x := 0; x < 19; x++ {
		if got := vc.Weighted(x, x+1); got != 0 {
			t.Errorf("Weighted(%d,%d) = %g, want 0", x, x+1, got)
		}
	}
	if got := vc.Var(3, 3); got != 0 {
		t.Errorf("Var of empty segment = %g, want 0", got)
	}
}

func TestDistSelfIsZeroAndSymmetric(t *testing.T) {
	u := twoPhase(t, 20, 10)
	e := newExplainer(t, u, ExplainerConfig{M: 2})
	if got := dist(e, Tse, 0, 5, 0, 5, true); got != 0 {
		t.Errorf("self distance = %g, want 0", got)
	}
	d1 := dist(e, Tse, 0, 5, 12, 18, true)
	d2 := dist(e, Tse, 12, 18, 0, 5, true)
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("tse distance asymmetric: %g vs %g", d1, d2)
	}
}

func TestDistBounds(t *testing.T) {
	u := twoPhase(t, 30, 15)
	e := newExplainer(t, u, ExplainerConfig{M: 2})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a := rng.Intn(28)
		b := a + 1 + rng.Intn(29-a)
		c := rng.Intn(28)
		d := c + 1 + rng.Intn(29-c)
		for _, kind := range AllVarianceKinds() {
			got := dist(e, kind, a, b, c, d, true)
			if got < -1e-12 || got > 1+1e-12 || math.IsNaN(got) {
				t.Fatalf("%v dist([%d,%d],[%d,%d]) = %g out of [0,1]", kind, a, b, c, d, got)
			}
		}
	}
}

func TestDistOppositePhasesIsLarge(t *testing.T) {
	u := twoPhase(t, 30, 15)
	e := newExplainer(t, u, ExplainerConfig{M: 1})
	// Phase 1 is explained by a, phase 2 by b: distance should be large.
	d := dist(e, Tse, 0, 14, 16, 29, true)
	if d < 0.5 {
		t.Errorf("cross-phase distance = %g, want large", d)
	}
	within := dist(e, Tse, 0, 7, 7, 14, true)
	if within > 0.2 {
		t.Errorf("within-phase distance = %g, want small", within)
	}
}

func TestVarianceLowWithinPhaseHighAcross(t *testing.T) {
	u := twoPhase(t, 30, 15)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 1}), Tse)
	within := vc.Var(0, 15)
	across := vc.Var(0, 29)
	if within > 0.15 {
		t.Errorf("within-phase var = %g, want near 0", within)
	}
	if across <= within {
		t.Errorf("across var %g should exceed within var %g", across, within)
	}
}

func TestOptimizeRecoversGroundTruthCut(t *testing.T) {
	for _, kind := range []VarianceKind{Tse, STse, Dist1, Dist2} {
		u := twoPhase(t, 30, 15)
		vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), kind)
		res, err := Optimize(vc, Options{KMax: 2})
		if err != nil {
			t.Fatalf("%v: Optimize: %v", kind, err)
		}
		s, ok := res.Scheme(2)
		if !ok {
			t.Fatalf("%v: no 2-scheme", kind)
		}
		if len(s.Cuts) != 3 || s.Cuts[0] != 0 || s.Cuts[2] != 29 {
			t.Fatalf("%v: cuts = %v", kind, s.Cuts)
		}
		if got := s.Cuts[1]; got < 14 || got > 16 {
			t.Errorf("%v: middle cut = %d, want ≈15", kind, got)
		}
	}
}

func TestOptimizeAllPairRecoversCut(t *testing.T) {
	u := twoPhase(t, 24, 12)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), AllPair)
	res, err := Optimize(vc, Options{KMax: 2})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	s, ok := res.Scheme(2)
	if !ok {
		t.Fatal("no 2-scheme")
	}
	if got := s.Cuts[1]; got < 11 || got > 13 {
		t.Errorf("allpair middle cut = %d, want ≈12", got)
	}
}

func TestDPMatchesExhaustiveSearch(t *testing.T) {
	u := twoPhase(t, 14, 7)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), Tse)
	res, err := Optimize(vc, Options{KMax: 4})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	n := 14
	for k := 1; k <= 4; k++ {
		want := math.Inf(1)
		var wantCuts []int
		// Enumerate all (k-1)-subsets of interior positions.
		var rec func(start int, cuts []int)
		rec = func(start int, cuts []int) {
			if len(cuts) == k-1 {
				full := append([]int{0}, cuts...)
				full = append(full, n-1)
				v := vc.TotalVariance(full)
				if v < want {
					want = v
					wantCuts = append([]int(nil), full...)
				}
				return
			}
			for p := start; p < n-1; p++ {
				rec(p+1, append(cuts, p))
			}
		}
		rec(1, nil)
		s, ok := res.Scheme(k)
		if !ok {
			t.Fatalf("k=%d: no scheme", k)
		}
		if math.Abs(s.TotalVariance-want) > 1e-9 {
			t.Errorf("k=%d: DP=%g exhaustive=%g (DP cuts %v, best %v)",
				k, s.TotalVariance, want, s.Cuts, wantCuts)
		}
		if math.Abs(vc.TotalVariance(s.Cuts)-s.TotalVariance) > 1e-9 {
			t.Errorf("k=%d: scheme variance %g inconsistent with TotalVariance %g",
				k, s.TotalVariance, vc.TotalVariance(s.Cuts))
		}
	}
}

func TestKVarianceCurveMonotone(t *testing.T) {
	u := twoPhase(t, 20, 10)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), Tse)
	res, err := Optimize(vc, Options{KMax: 8})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	curve := KVarianceCurve(res)
	for k := 2; k < len(curve); k++ {
		if curve[k] > curve[k-1]+1e-9 {
			t.Errorf("K-variance curve not non-increasing at k=%d: %g > %g",
				k, curve[k], curve[k-1])
		}
	}
}

func TestOptimizeMaxLenConstraint(t *testing.T) {
	u := twoPhase(t, 20, 10)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), Tse)
	res, err := Optimize(vc, Options{KMax: 6, MaxSegmentLen: 5})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// 19 units / 5 per segment needs at least 4 segments.
	for k := 1; k <= 3; k++ {
		if _, ok := res.Scheme(k); ok {
			t.Errorf("k=%d should be infeasible under maxLen=5", k)
		}
	}
	s, ok := res.Scheme(4)
	if !ok {
		t.Fatal("k=4 should be feasible under maxLen=5")
	}
	for i := 1; i < len(s.Cuts); i++ {
		if s.Cuts[i]-s.Cuts[i-1] > 5 {
			t.Errorf("segment [%d,%d] exceeds maxLen", s.Cuts[i-1], s.Cuts[i])
		}
	}
}

func TestOptimizePositionsRestricted(t *testing.T) {
	u := twoPhase(t, 20, 10)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), Tse)
	res, err := Optimize(vc, Options{KMax: 2, Positions: []int{0, 5, 10, 19}})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	s, ok := res.Scheme(2)
	if !ok {
		t.Fatal("no 2-scheme")
	}
	if s.Cuts[1] != 10 {
		t.Errorf("restricted cut = %d, want 10 (the only good candidate)", s.Cuts[1])
	}
}

func TestOptimizeErrors(t *testing.T) {
	u := twoPhase(t, 20, 10)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), Tse)
	cases := []Options{
		{Positions: []int{0}},             // too few
		{Positions: []int{1, 19}},         // must start at 0
		{Positions: []int{0, 10}},         // must end at n-1
		{Positions: []int{0, 10, 10, 19}}, // not strictly increasing
		{Positions: []int{0, 25, 19}},     // out of range and unsorted
	}
	for i, opt := range cases {
		if _, err := Optimize(vc, opt); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestElbowK(t *testing.T) {
	// A curve with an obvious knee at k=3.
	curve := []float64{math.Inf(1), 100, 40, 8, 6, 5, 4.5, 4.2}
	if got := ElbowK(curve); got != 3 {
		t.Errorf("ElbowK = %d, want 3", got)
	}
	// Degenerate curves.
	if got := ElbowK([]float64{math.Inf(1)}); got != 1 {
		t.Errorf("empty curve ElbowK = %d, want 1", got)
	}
	if got := ElbowK([]float64{math.Inf(1), 5}); got != 1 {
		t.Errorf("single-point curve ElbowK = %d, want 1", got)
	}
	if got := ElbowK([]float64{math.Inf(1), 5, 5, 5}); got != 1 {
		t.Errorf("flat curve ElbowK = %d, want smallest k", got)
	}
	// Infeasible prefix is skipped.
	if got := ElbowK([]float64{math.Inf(1), math.Inf(1), 100, 10, 9, 8.5}); got != 3 {
		t.Errorf("ElbowK with infeasible k=1: got %d, want 3", got)
	}
}

func TestSelectSketchKeepsGroundTruthCut(t *testing.T) {
	u := twoPhase(t, 60, 30)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), Tse)
	sketch, err := SelectSketch(vc, SketchConfig{MaxSegmentLen: 6, Size: 20})
	if err != nil {
		t.Fatalf("SelectSketch: %v", err)
	}
	if sketch[0] != 0 || sketch[len(sketch)-1] != 59 {
		t.Fatalf("sketch must include endpoints: %v", sketch)
	}
	found := false
	for _, p := range sketch {
		if p >= 29 && p <= 31 {
			found = true
		}
	}
	if !found {
		t.Errorf("sketch %v misses the ground-truth cut ≈30", sketch)
	}
	// Phase 2 over the sketch recovers the cut.
	res, err := Optimize(vc, Options{KMax: 2, Positions: sketch})
	if err != nil {
		t.Fatalf("phase-2 Optimize: %v", err)
	}
	s, _ := res.Scheme(2)
	if s.Cuts[1] < 29 || s.Cuts[1] > 31 {
		t.Errorf("sketched cut = %d, want ≈30", s.Cuts[1])
	}
}

func TestSelectSketchDefaultsAndSmallSeries(t *testing.T) {
	u := twoPhase(t, 20, 10)
	vc := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), Tse)
	// Default |S| = 3n/L with L = max(2, n/20): for n=20, L=2 so |S|=30 ≥
	// n-1: the sketch degenerates to all positions.
	sketch, err := SelectSketch(vc, SketchConfig{})
	if err != nil {
		t.Fatalf("SelectSketch: %v", err)
	}
	want := make([]int, 20)
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(sketch, want) {
		t.Errorf("small-series sketch = %v, want all positions", sketch)
	}
}

func TestExplainerCacheAndStats(t *testing.T) {
	u := twoPhase(t, 20, 10)
	e := newExplainer(t, u, ExplainerConfig{M: 2})
	r1 := e.TopM(0, 10)
	r2 := e.TopM(0, 10)
	if r1 != r2 {
		t.Error("TopM not cached")
	}
	solves, _, _ := e.Stats()
	if solves != 1 {
		t.Errorf("solves = %d, want 1", solves)
	}
	e.ResetCache()
	if s, _, _ := e.Stats(); s != 0 {
		t.Errorf("stats not reset: %d", s)
	}
	// The flat cache reuses storage slots, so detect the recompute through
	// the solve counter rather than pointer identity.
	e.TopM(0, 10)
	if s, _, _ := e.Stats(); s != 1 {
		t.Errorf("cache not cleared: %d solves after reset, want 1", s)
	}
}

func TestExplainerInvalidateFrom(t *testing.T) {
	u := twoPhase(t, 20, 10)
	e := newExplainer(t, u, ExplainerConfig{M: 2})
	e.TopM(0, 5)
	e.TopM(12, 19)
	e.InvalidateFrom(10)
	// The flat cache reuses storage slots, so pointer identity proves
	// nothing; detect retention vs recompute through the solve counter.
	solvesBefore, _, _ := e.Stats()
	e.TopM(0, 5)
	if solves, _, _ := e.Stats(); solves != solvesBefore {
		t.Error("prefix segment should stay cached")
	}
	e.TopM(12, 19)
	if solves, _, _ := e.Stats(); solves != solvesBefore+1 {
		t.Error("suffix segment should have been invalidated")
	}
}

func TestGuessVerifyPathGivesSameSegmentation(t *testing.T) {
	u := twoPhase(t, 30, 15)
	exact := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2}), Tse)
	guess := NewVarCalc(newExplainer(t, u, ExplainerConfig{M: 2, UseGuessVerify: true, GuessInit: 2}), Tse)
	re, err := Optimize(exact, Options{KMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := Optimize(guess, Options{KMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		se, _ := re.Scheme(k)
		sg, _ := rg.Scheme(k)
		if math.Abs(se.TotalVariance-sg.TotalVariance) > 1e-9 {
			t.Errorf("k=%d: exact %g vs guess-verify %g", k, se.TotalVariance, sg.TotalVariance)
		}
	}
}

func TestVarianceKindStrings(t *testing.T) {
	want := []string{"tse", "dist1", "dist2", "allpair", "Stse", "Sdist1", "Sdist2", "Sallpair"}
	kinds := AllVarianceKinds()
	if len(kinds) != len(want) {
		t.Fatalf("AllVarianceKinds = %d entries, want %d", len(kinds), len(want))
	}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k, want[i])
		}
	}
}

func TestRectificationMatters(t *testing.T) {
	// Category a rises then falls symmetrically: its effect flips between
	// the two halves, so with rectification the cross-half distance is
	// large, while without rectification the halves look identical.
	n := 21
	a := make([]float64, n)
	bse := make([]float64, n)
	for i := 0; i < n; i++ {
		if i <= 10 {
			a[i] = float64(10 * i)
		} else {
			a[i] = float64(10 * (20 - i))
		}
		bse[i] = 3
	}
	r := makeCatRelation(t, map[string][]float64{"a": a, "b": bse})
	u, err := explain.NewUniverse(r, explain.Config{Measure: "v", Agg: relation.Sum})
	if err != nil {
		t.Fatal(err)
	}
	e := newExplainer(t, u, ExplainerConfig{M: 1})
	rectified := dist(e, Tse, 0, 9, 11, 20, true)
	raw := dist(e, Tse, 0, 9, 11, 20, false)
	if rectified <= raw {
		t.Errorf("rectified dist %g should exceed unrectified %g across an effect flip",
			rectified, raw)
	}
	if raw > 0.01 {
		t.Errorf("unrectified dist = %g, want ≈0 (same explanation, opposite effect)", raw)
	}
}

// universeOf builds a universe over a category relation, for tests in
// other files of this package.
func universeOf(r *relation.Relation) (*explain.Universe, error) {
	return explain.NewUniverse(r, explain.Config{Measure: "v", Agg: relation.Sum})
}
