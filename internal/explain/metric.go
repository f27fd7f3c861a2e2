package explain

import (
	"fmt"
	"math"

	"repro/internal/relation"
)

// Metric identifies a difference metric γ(E) from the diff-operator
// abstraction (Section 3.1.1). The paper's experiments all use
// AbsoluteChange; RelativeChange and RiskRatio implement the "extending
// the difference metric library" direction listed in the conclusion.
type Metric int

const (
	// AbsoluteChange is Definition 3.2: the absolute change in
	// f(M,R_t) − f(M,R_c) caused by removing the records E selects.
	AbsoluteChange Metric = iota
	// RelativeChange normalizes the absolute change by the magnitude of
	// the overall change, scoring slices by the fraction of the KPI move
	// they account for.
	RelativeChange
	// RiskRatio compares the slice's share of the aggregate in the test
	// relation against its share in the control relation, in the style of
	// MacroBase's risk ratio; values far from 1 indicate slices whose
	// weight shifted.
	RiskRatio
)

// String returns the metric's name.
func (m Metric) String() string {
	switch m {
	case AbsoluteChange:
		return "absolute-change"
	case RelativeChange:
		return "relative-change"
	case RiskRatio:
		return "risk-ratio"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

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

// Score computes γ(E) under metric m together with the change effect
// τ(E), given the decomposed aggregate state of the whole relation and of
// the slice σ_E R at the control (c) and test (t) endpoints.
//
// For any decomposable aggregate f, the overall difference is
// f(tot_t) − f(tot_c) and removing E's records yields
// f(tot_t − e_t) − f(tot_c − e_c); γ and τ follow Definitions 3.2–3.3.
func (m Metric) Score(f relation.AggFunc, totC, totT, eC, eT relation.SumCount) (gamma float64, effect Effect) {
	base := f.Eval(totT.Sum, totT.Count) - f.Eval(totC.Sum, totC.Count)
	remT := totT.Sub(eT)
	remC := totC.Sub(eC)
	removed := f.Eval(remT.Sum, remT.Count) - f.Eval(remC.Sum, remC.Count)
	delta := base - removed
	effect = effectOf(delta)

	switch m {
	case AbsoluteChange:
		gamma = math.Abs(delta)
	case RelativeChange:
		denom := math.Abs(base)
		if denom == 0 {
			gamma = math.Abs(delta)
		} else {
			gamma = math.Abs(delta) / denom
		}
	case RiskRatio:
		shareT := share(math.Abs(f.Eval(totT.Sum, totT.Count)), f.Eval(eT.Sum, eT.Count))
		shareC := share(math.Abs(f.Eval(totC.Sum, totC.Count)), f.Eval(eC.Sum, eC.Count))
		gamma = riskRatio(shareT, shareC)
	default:
		panic("explain: invalid Metric")
	}
	return gamma, effect
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

// share returns |v| / overall, the slice's share of the aggregate at one
// endpoint given overall = |f(R)| and v = f(σ_E R), clamped to 0 when the
// overall aggregate vanishes.
func share(overall, v float64) float64 {
	if overall == 0 {
		return 0
	}
	return math.Abs(v) / overall
}

// riskRatio is the risk-ratio score of a slice whose aggregate shares at
// the test and control endpoints are shareT and shareC, folded so a shift
// in either direction scores above 1.
func riskRatio(shareT, shareC float64) float64 {
	const eps = 1e-12
	ratio := (shareT + eps) / (shareC + eps)
	if ratio < 1 && ratio > 0 {
		ratio = 1 / ratio
	}
	return ratio
}

// Gamma scores candidate id over the segment [c, t] (point positions into
// the aggregated series) under metric m. It is the O(1) per-lookup scoring
// the precompute module enables.
func (u *Universe) Gamma(id, c, t int, m Metric) (gamma float64, effect Effect) {
	cand := u.cands[id]
	return m.Score(u.agg, u.total[c], u.total[t], cand.Series[c], cand.Series[t])
}
