package segment

import (
	"math"
	"math/rand"
	"testing"
)

// TestAllPairPrefixMatchesDirect cross-checks the O(1) prefix-sum path of
// the AllPair variance against a direct double loop over unit objects.
func TestAllPairPrefixMatchesDirect(t *testing.T) {
	u := twoPhase(t, 25, 12)
	for _, kind := range []VarianceKind{AllPair, SAllPair} {
		e := newExplainer(t, u, ExplainerConfig{M: 2})
		vc := NewVarCalc(e, kind)
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 40; trial++ {
			a := rng.Intn(22)
			b := a + 2 + rng.Intn(24-a-1)
			got := vc.Weighted(a, b)

			// Direct evaluation via Dist.
			var sum float64
			var pairs int
			for x := a; x < b; x++ {
				for y := x + 1; y < b; y++ {
					sum += dist(e, kind, x, x+1, y, y+1, true)
					pairs++
				}
			}
			want := 0.0
			if pairs > 0 {
				want = float64(b-a) * sum / float64(pairs)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v Weighted(%d,%d) = %g, direct = %g", kind, a, b, got, want)
			}
		}
	}
}

// TestCoarseObjectsRecoverCut verifies that phase-2 segmentation over
// sketch-interval objects still finds the ground-truth cut.
func TestCoarseObjectsRecoverCut(t *testing.T) {
	u := twoPhase(t, 60, 30)
	e := newExplainer(t, u, ExplainerConfig{M: 2})
	vc := NewVarCalc(e, Tse)
	sketch, err := SelectSketch(vc, SketchConfig{MaxSegmentLen: 6, Size: 20})
	if err != nil {
		t.Fatal(err)
	}
	vc.SetObjectPositions(sketch)
	res, err := Optimize(vc, Options{KMax: 2, Positions: sketch})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := res.Scheme(2)
	if !ok {
		t.Fatal("no 2-scheme under coarse objects")
	}
	if s.Cuts[1] < 28 || s.Cuts[1] > 32 {
		t.Errorf("coarse-object cut = %d, want ≈30", s.Cuts[1])
	}
	// Unit-object variance of a segment differs in general but stays in
	// the same scale; the weighted value must remain finite and bounded.
	if w := vc.Weighted(0, 59); w < 0 || w > 59 {
		t.Errorf("coarse Weighted(0,59) = %g out of range", w)
	}
	// Restore unit objects.
	vc.SetObjectPositions(nil)
	if lo, hi := vc.objectRange(0, 59); lo != 0 || hi != 59 {
		t.Errorf("unit objects after reset = [%d, %d), want [0, 59)", lo, hi)
	}
}

// TestCoarseAllPair exercises the coarse-object AllPair path.
func TestCoarseAllPair(t *testing.T) {
	u := twoPhase(t, 40, 20)
	e := newExplainer(t, u, ExplainerConfig{M: 2})
	vc := NewVarCalc(e, AllPair)
	vc.SetObjectPositions([]int{0, 10, 20, 30, 39})
	w := vc.Weighted(0, 39)
	if w <= 0 || math.IsNaN(w) {
		t.Errorf("coarse AllPair Weighted = %g, want positive", w)
	}
	// A single-interval segment has no pairs.
	if got := vc.Weighted(0, 10); got != 0 {
		t.Errorf("one-object segment Weighted = %g, want 0", got)
	}
}

// TestSetRectifyInvalidatesCaches ensures toggling rectification clears
// cached values so results change.
func TestSetRectifyInvalidatesCaches(t *testing.T) {
	// Effect-flipping dataset: category a rises then falls.
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
	u, err := universeOf(r)
	if err != nil {
		t.Fatal(err)
	}
	e := newExplainer(t, u, ExplainerConfig{M: 1})
	vc := NewVarCalc(e, Tse)
	// The segment [0, 13] spans the flip at 10: category a still nets an
	// increase over the segment, but the last objects see it decreasing.
	// With rectification those objects' relevance is zeroed, so the
	// variance must be strictly larger than without it.
	with := vc.Weighted(0, 13)
	vc.SetRectify(false)
	without := vc.Weighted(0, 13)
	if with <= without {
		t.Errorf("rectified variance %g should exceed unrectified %g on an effect flip", with, without)
	}
}
