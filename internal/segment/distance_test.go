package segment

import (
	"math"
	"testing"

	"repro/internal/cascading"
)

// dist is the explanation distance between segments [ac, at] and
// [bc, bt] under kind (Eqs. 3–9, with the squared variants), scored
// straight from Universe.Gamma without the variance calculator's γ memo.
// It is the reference the memoized distance loop is checked against. For
// Dist1/Dist2 the first segment plays the centroid role.
func dist(e *Explainer, kind VarianceKind, ac, at, bc, bt int, rectify bool) float64 {
	a, b := e.TopM(ac, at), e.TopM(bc, bt)
	// ndcg: how well source's explanations explain the target [c, t].
	ndcg := func(c, t int, target, source *cascading.Result) float64 {
		ideal := idealDCG(target)
		if ideal == 0 {
			return 1
		}
		var got float64
		for r, p := range source.Explanations {
			g, eff := e.u.Gamma(p.ID, c, t, e.solver.Metric())
			if rectify && eff != p.Effect {
				g = 0
			}
			got += g * discount(r)
		}
		if got >= ideal {
			return 1
		}
		return got / ideal
	}
	nab := ndcg(ac, at, a, b) // b's explanations explain a
	nba := ndcg(bc, bt, b, a) // a's explanations explain b
	switch kind {
	case Tse, AllPair:
		return 1 - (nab+nba)/2
	case STse, SAllPair:
		return 1 - (nab*nab+nba*nba)/2
	case Dist1:
		return 1 - nab
	case SDist1:
		return 1 - nab*nab
	case Dist2:
		return 1 - nba
	case SDist2:
		return 1 - nba*nba
	}
	panic("segment: invalid VarianceKind")
}

// TestWeightedMatchesDirectDistances pins the memoized distance loop: for
// every design, with unit and with coarsened objects, rectified or not,
// Weighted must equal the object-by-object sum of directly scored
// distances bit for bit — in every order of calls, so memo entries one
// centroid or object leaves behind never leak into another's.
func TestWeightedMatchesDirectDistances(t *testing.T) {
	u := twoPhase(t, 40, 17)
	coarse := []int{0, 3, 4, 9, 15, 16, 22, 30, 31, 39}
	for _, kind := range AllVarianceKinds() {
		for _, objPos := range [][]int{nil, coarse} {
			for _, rectify := range []bool{true, false} {
				e := newExplainer(t, u, ExplainerConfig{M: 3})
				vc := NewVarCalc(e, kind)
				vc.SetRectify(rectify)
				vc.SetObjectPositions(objPos)
				// Objects as (start, end) pairs.
				var objs [][2]int
				if objPos == nil {
					for x := 0; x+1 < u.NumTimestamps(); x++ {
						objs = append(objs, [2]int{x, x + 1})
					}
				} else {
					for i := 0; i+1 < len(objPos); i++ {
						objs = append(objs, [2]int{objPos[i], objPos[i+1]})
					}
				}
				// Segments over the object boundaries, long ones first, so
				// later calls read memo rows earlier calls filled.
				bounds := append([]int(nil), coarse...)
				if objPos == nil {
					bounds = bounds[:0]
					for x := 0; x < u.NumTimestamps(); x += 3 {
						bounds = append(bounds, x)
					}
				}
				for span := len(bounds) - 1; span >= 1; span-- {
					for i := 0; i+span < len(bounds); i++ {
						a, b := bounds[i], bounds[i+span]
						if b-a <= 1 {
							continue
						}
						got := vc.Weighted(a, b)
						if kind == AllPair || kind == SAllPair {
							if objPos == nil {
								continue // prefix sums: TestAllPairPrefixMatchesDirect
							}
						}
						want := directWeighted(e, kind, objs, a, b, rectify)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%v objPos=%v rectify=%v: Weighted(%d,%d) = %v, direct = %v",
								kind, objPos != nil, rectify, a, b, got, want)
						}
					}
				}
			}
		}
	}
}

// directWeighted evaluates Eq. 7 for [a, b] from directly scored
// distances, in the order Weighted sums them.
func directWeighted(e *Explainer, kind VarianceKind, objs [][2]int, a, b int, rectify bool) float64 {
	var in [][2]int
	for _, o := range objs {
		if o[0] >= a && o[1] <= b {
			in = append(in, o)
		}
	}
	var sum float64
	switch kind {
	case AllPair, SAllPair:
		pairs := 0
		for i := range in {
			for j := i + 1; j < len(in); j++ {
				sum += dist(e, kind, in[i][0], in[i][1], in[j][0], in[j][1], rectify)
				pairs++
			}
		}
		if pairs == 0 {
			return 0
		}
		return float64(b-a) * sum / float64(pairs)
	default:
		for _, o := range in {
			sum += dist(e, kind, a, b, o[0], o[1], rectify)
		}
		if len(in) == 0 {
			return 0
		}
		return float64(b-a) * sum / float64(len(in))
	}
}
