package explain

import "math"

// FilterLowSupport implements the "filter" optimization of Section 7.5.1:
// a candidate explanation is dropped when, at every timestamp, the
// absolute value of its aggregated series is below ratio times the
// absolute value of the overall aggregated series. Such slices are too
// small to ever matter and only slow the Cascading Analysts module down.
//
// It returns the IDs of the surviving candidates (in ascending order). The
// Universe itself is not modified, so callers can compare filtered and
// unfiltered runs. ratio ≤ 0 keeps everything, including candidates that
// are zero throughout, which FirstQualifying's |v| > 0 test would drop.
// The paper's default ratio is 0.001.
func (u *Universe) FilterLowSupport(ratio float64) []int {
	ids := make([]int, 0, len(u.cands))
	if ratio <= 0 {
		for id := range u.cands {
			ids = append(ids, id)
		}
		return ids
	}
	totalVals := u.TotalValues()
	for id := range u.cands {
		if u.FirstQualifying(id, 0, ratio, totalVals) >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// AllCandidateIDs returns every candidate ID in ascending order,
// equivalent to FilterLowSupport with a non-positive ratio.
func (u *Universe) AllCandidateIDs() []int {
	return u.FilterLowSupport(0)
}

// FirstQualifying returns the first position t ≥ from at which candidate
// id passes the support filter — |v| ≥ ratio·|total| and |v| > 0, the
// keep condition of FilterLowSupport for ratio > 0 — or -1 when none does.
// totalVals must be the universe's TotalValues(); callers scanning many
// candidates compute it once. The incremental engine uses this to
// maintain the filtered set in O(changed suffix) per append: a candidate
// whose first qualifying position precedes the change is still kept
// without rescanning, and everything else only rescans from the change.
func (u *Universe) FirstQualifying(id, from int, ratio float64, totalVals []float64) int {
	cand := u.cands[id]
	for t := from; t < len(totalVals); t++ {
		sc := cand.Series[t]
		v := math.Abs(u.agg.Eval(sc.Sum, sc.Count))
		if v >= ratio*math.Abs(totalVals[t]) && v > 0 {
			return t
		}
	}
	return -1
}
