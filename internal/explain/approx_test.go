package explain

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/synth"
)

func buildTestUniverse(t *testing.T, agg relation.AggFunc) *Universe {
	t.Helper()
	d, err := synth.Generate(synth.Params{N: 60, Categories: 4, Seed: 11, SNRdB: 30})
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	u, err := NewUniverse(d.Rel, Config{Measure: "sales", Agg: agg})
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	return u
}

// TestContributionBoundDominatesGamma is the soundness property the whole
// approximate error bound rests on: the per-candidate bound dominates the
// absolute-change score over every segment.
func TestContributionBoundDominatesGamma(t *testing.T) {
	for _, agg := range []relation.AggFunc{relation.Sum, relation.Count, relation.Avg} {
		u := buildTestUniverse(t, agg)
		bounds := u.ContributionBounds(nil)
		n := u.NumTimestamps()
		for id := 0; id < u.NumCandidates(); id++ {
			for c := 0; c < n; c++ {
				for tt := c + 1; tt < n; tt += 7 {
					g, _ := u.Gamma(id, c, tt)
					if g > bounds[id]+1e-9 {
						t.Fatalf("agg %v candidate %d segment [%d,%d]: γ=%g exceeds bound %g",
							agg, id, c, tt, g, bounds[id])
					}
				}
			}
		}
	}
}

// TestContributionBoundsEligibleMatchFullPass: scoring only an eligible
// set gives every eligible id exactly the full pass's bound bits, and the
// full pass equals the φ-range formula evaluated through SumCount.Sub and
// AggFunc.Eval, for each aggregate and on adversarial series.
func TestContributionBoundsEligibleMatchFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, agg := range []relation.AggFunc{relation.Sum, relation.Count, relation.Avg} {
		for trial, u := range []*Universe{buildTestUniverse(t, agg), adversarialUniverse(rng, agg, 64, 9)} {
			full := u.ContributionBounds(nil)
			fTot := u.TotalValues()
			for id, c := range u.cands {
				mn, mx := math.Inf(1), math.Inf(-1)
				for tt, e := range c.Series {
					rem := u.total[tt].Sub(e)
					phi := fTot[tt] - agg.Eval(rem.Sum, rem.Count)
					if phi < mn {
						mn = phi
					}
					if phi > mx {
						mx = phi
					}
				}
				if want := mx - mn; math.Float64bits(full[id]) != math.Float64bits(want) {
					t.Fatalf("%v #%d candidate %d: bound %v, want %v", agg, trial, id, full[id], want)
				}
			}
			allowed := make([]bool, u.NumCandidates())
			for id := range allowed {
				allowed[id] = rng.Intn(3) > 0
			}
			some := u.ContributionBounds(allowed)
			for id, ok := range allowed {
				if ok && math.Float64bits(some[id]) != math.Float64bits(full[id]) {
					t.Fatalf("%v #%d eligible candidate %d: bound %v, full pass %v", agg, trial, id, some[id], full[id])
				}
				if !ok && some[id] != 0 {
					t.Fatalf("%v #%d ineligible candidate %d scored %v", agg, trial, id, some[id])
				}
			}
		}
	}
}

func TestSelectTopBounds(t *testing.T) {
	bounds := []float64{5, 1, 9, 3, 9, 0.5}
	ids, theta := SelectTopBounds(bounds, nil, 3)
	if want := []int{0, 2, 4}; len(ids) != 3 || ids[0] != want[0] || ids[1] != want[1] || ids[2] != want[2] {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	if theta != 3 {
		t.Fatalf("theta = %g, want 3", theta)
	}

	// Ties break by ascending id: both 9s kept before the 5.
	ids, theta = SelectTopBounds(bounds, nil, 2)
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 4 {
		t.Fatalf("ids = %v, want [2 4]", ids)
	}
	if theta != 5 {
		t.Fatalf("theta = %g, want 5", theta)
	}

	// The allowed bitmap excludes candidates from both selection and theta.
	allowed := []bool{true, true, false, true, false, true}
	ids, theta = SelectTopBounds(bounds, allowed, 2)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 3 {
		t.Fatalf("ids = %v, want [0 3]", ids)
	}
	if theta != 1 {
		t.Fatalf("theta = %g, want 1", theta)
	}

	// Nothing pruned: theta is 0 and every eligible id comes back sorted.
	ids, theta = SelectTopBounds(bounds, nil, 100)
	if len(ids) != len(bounds) || theta != 0 {
		t.Fatalf("ids = %v theta = %g, want all ids and theta 0", ids, theta)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not ascending: %v", ids)
		}
	}
}

// TestResidualSeriesExact: the residual of a non-overlapping explanation
// set plus the explanations' own series reproduces the overall series
// exactly, per decomposed component.
func TestResidualSeriesExact(t *testing.T) {
	u := buildTestUniverse(t, relation.Sum)
	// Pick the order-1 candidates of dimension 0: sibling slices, disjoint
	// by construction.
	var ids []int
	for id := 0; id < u.NumCandidates(); id++ {
		c := u.Candidate(id).Conj
		if c.Order() == 1 && c[0].Dim == u.ExplainBy()[0] {
			ids = append(ids, id)
			if len(ids) == 2 {
				break
			}
		}
	}
	if len(ids) < 2 {
		t.Fatal("expected at least two order-1 candidates")
	}
	res := u.ResidualSeries(ids)
	tot := u.TotalSeries()
	for tt := range tot {
		sum := res[tt]
		for _, id := range ids {
			s := u.Candidate(id).Series[tt]
			sum.Sum += s.Sum
			sum.Count += s.Count
		}
		if math.Abs(sum.Sum-tot[tt].Sum) > 1e-9*(1+math.Abs(tot[tt].Sum)) ||
			math.Abs(sum.Count-tot[tt].Count) > 1e-9*(1+math.Abs(tot[tt].Count)) {
			t.Fatalf("t=%d: residual+selected = %+v, total %+v", tt, sum, tot[tt])
		}
	}
}
