package explain

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/relation"
)

// This file implements the candidate-axis side of the anytime approximate
// explanation path: a cheap per-candidate upper bound on the difference
// score any segment can ever assign, the deterministic top-M selection
// that bound induces, and the exact residual ("other") series of a
// selected explanation set. The budgeted solver mode in core composes
// these with the restricted Cascading Analysts solve to keep per-segment
// cost proportional to the kept candidates instead of the full candidate
// count ε.

// ContributionBounds returns, per candidate, an upper bound on the
// absolute-change difference score γ(E, c, t) over EVERY segment [c, t].
// Only the eligible candidates are scored (allowed nil means every
// candidate); the others' entries are 0.
//
// Definition 3.2 rewrites to γ(E, c, t) = |φ_E(t) − φ_E(c)| with
// φ_E(x) = f(tot_x) − f(tot_x − e_x), the candidate's effect on the
// aggregate at a single timestamp. The range max_x φ_E − min_x φ_E
// therefore dominates γ at any endpoint pair, independent of the
// segmentation — which is what lets a pruning threshold translate into a
// per-segment attribution-error bound. For SUM the bound degenerates to
// the range of the candidate's raw series.
//
// The bound is computed against the universe's active (possibly smoothed)
// series views, the same state Gamma scores, in O(ε·n) total.
func (u *Universe) ContributionBounds(allowed []bool) []float64 {
	fTot := u.TotalValues()
	out := make([]float64, len(u.cands))
	for id, c := range u.cands {
		if allowed != nil && !allowed[id] {
			continue
		}
		mn, mx := phiRange(u.agg, u.total, fTot, c.Series)
		out[id] = mx - mn
	}
	return out
}

// phiRange returns the smallest and largest per-timestamp effect
// φ(x) = fTot[x] − f(total[x] − series[x]) of one candidate series, where
// fTot[x] = f(total[x]). The aggregate is resolved once, outside the loop;
// each φ is the same float operations f.Eval performs on total − e, so
// the result is bit-identical to evaluating through SumCount.Sub and Eval.
//
//tsexplain:hotpath
func phiRange(f relation.AggFunc, total []relation.SumCount, fTot []float64, series []relation.SumCount) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	switch f {
	case relation.Sum:
		for t, e := range series {
			phi := fTot[t] - (total[t].Sum - e.Sum)
			if phi < mn {
				mn = phi
			}
			if phi > mx {
				mx = phi
			}
		}
	case relation.Count:
		for t, e := range series {
			phi := fTot[t] - (total[t].Count - e.Count)
			if phi < mn {
				mn = phi
			}
			if phi > mx {
				mx = phi
			}
		}
	default:
		for t, e := range series {
			phi := fTot[t] - f.Eval(total[t].Sum-e.Sum, total[t].Count-e.Count)
			if phi < mn {
				mn = phi
			}
			if phi > mx {
				mx = phi
			}
		}
	}
	return mn, mx
}

// SelectTopBounds picks the ids of the (at most max) candidates with the
// largest bounds among the eligible set (allowed nil means every
// candidate), breaking ties by ascending id so the selection is
// deterministic. It returns the kept ids in ascending id order, and
// theta: the largest bound among eligible candidates that were NOT kept
// (0 when nothing was pruned) — the quantity every pruned candidate's γ
// is bounded by.
func SelectTopBounds(bounds []float64, allowed []bool, max int) (ids []int, theta float64) {
	order := make([]int, 0, len(bounds))
	for id := range bounds {
		if allowed == nil || allowed[id] {
			order = append(order, id)
		}
	}
	if max < 0 {
		max = 0
	}
	if len(order) <= max {
		return order, 0
	}
	SortByBound(order, bounds)
	theta = bounds[order[max]]
	ids = append([]int(nil), order[:max]...)
	sort.Ints(ids)
	return ids, theta
}

// SortByBound sorts candidate ids by descending bound, ties by ascending
// id: the ranking SelectTopBounds cuts and the approximate path's
// refinement rounds take prefixes of.
func SortByBound(ids []int, bounds []float64) {
	slices.SortFunc(ids, func(a, b int) int {
		if ba, bb := bounds[a], bounds[b]; ba != bb {
			if ba > bb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
}

// ResidualSeries returns the exact aggregated series of everything the
// given non-overlapping explanations do NOT cover: per timestamp, the
// overall decomposed state minus the explanations' states. Because the
// Cascading Analysts selection is guaranteed non-overlapping, the
// subtraction is the true decomposed state of the complement slice for
// any decomposable aggregate, so the reported trendlines plus this
// residual reproduce the overall series exactly — totals stay exact no
// matter how many candidates were pruned.
func (u *Universe) ResidualSeries(ids []int) []relation.SumCount {
	out := append([]relation.SumCount(nil), u.total...)
	for _, id := range ids {
		for t, e := range u.cands[id].Series {
			out[t] = out[t].Sub(e)
		}
	}
	return out
}
