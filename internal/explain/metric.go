package explain

import (
	"math"

	"repro/internal/relation"
)

// Effect is the change effect τ(E) of Definition 3.3.
type Effect int8

const (
	// Decrease means including E's records decreases the overall change.
	Decrease Effect = -1
	// Neutral means E's records do not move the overall change.
	Neutral Effect = 0
	// Increase means including E's records increases the overall change.
	Increase Effect = 1
)

// String renders the effect as the paper's +/- notation.
func (e Effect) String() string {
	switch {
	case e > 0:
		return "+"
	case e < 0:
		return "-"
	default:
		return "0"
	}
}

// Score computes the difference score γ(E) of Definition 3.2, the
// absolute change, together with the change effect τ(E), given the
// decomposed aggregate state of the whole relation and of the slice σ_E R
// at the control (c) and test (t) endpoints.
//
// For any decomposable aggregate f, the overall difference is
// f(tot_t) − f(tot_c) and removing E's records yields
// f(tot_t − e_t) − f(tot_c − e_c); γ and τ follow Definitions 3.2–3.3.
func Score(f relation.AggFunc, totC, totT, eC, eT relation.SumCount) (gamma float64, effect Effect) {
	base := f.Eval(totT.Sum, totT.Count) - f.Eval(totC.Sum, totC.Count)
	remT := totT.Sub(eT)
	remC := totC.Sub(eC)
	removed := f.Eval(remT.Sum, remT.Count) - f.Eval(remC.Sum, remC.Count)
	delta := base - removed
	return math.Abs(delta), effectOf(delta)
}

// effectOf maps the difference-score delta to its change effect τ.
func effectOf(delta float64) Effect {
	switch {
	case delta > 0:
		return Increase
	case delta < 0:
		return Decrease
	}
	return Neutral
}

// Gamma scores candidate id over the segment [c, t] (point positions into
// the aggregated series). It is the O(1) per-lookup scoring the
// precompute module enables.
func (u *Universe) Gamma(id, c, t int) (gamma float64, effect Effect) {
	cand := u.cands[id]
	return Score(u.agg, u.total[c], u.total[t], cand.Series[c], cand.Series[t])
}
