package segment

import (
	"fmt"
	"math"

	"repro/internal/cascading"
)

// VarianceKind selects one of the eight within-segment variance designs
// compared in Section 4.2.2. Tse is the paper's proposal; the others are
// the alternatives it is evaluated against.
type VarianceKind int

const (
	// Tse averages both NDCG directions between object and centroid
	// (Eq. 6 inside Eq. 7). This is TSExplain's metric.
	Tse VarianceKind = iota
	// Dist1 only asks how well each object's explanations explain the
	// centroid (Eq. 8).
	Dist1
	// Dist2 only asks how well the centroid's explanations explain each
	// object (Eq. 9).
	Dist2
	// AllPair averages the Tse distance over every object pair in the
	// segment instead of object-vs-centroid (Eq. 10).
	AllPair
	// STse is Tse with squared NDCG terms (l2 instead of l1 averaging).
	STse
	// SDist1 is Dist1 with a squared NDCG term.
	SDist1
	// SDist2 is Dist2 with a squared NDCG term.
	SDist2
	// SAllPair is AllPair built from the squared-term distance.
	SAllPair

	numVarianceKinds
)

// AllVarianceKinds lists every variance design, in the order used by the
// Figure 6 experiment.
func AllVarianceKinds() []VarianceKind {
	out := make([]VarianceKind, numVarianceKinds)
	for i := range out {
		out[i] = VarianceKind(i)
	}
	return out
}

// String returns the metric name used in the paper's plots.
func (k VarianceKind) String() string {
	switch k {
	case Tse:
		return "tse"
	case Dist1:
		return "dist1"
	case Dist2:
		return "dist2"
	case AllPair:
		return "allpair"
	case STse:
		return "Stse"
	case SDist1:
		return "Sdist1"
	case SDist2:
		return "Sdist2"
	case SAllPair:
		return "Sallpair"
	default:
		return fmt.Sprintf("VarianceKind(%d)", int(k))
	}
}

// discounts[r] is 1/log2(r+2), the DCG discount of rank r (0-based),
// precomputed for the ranks any reasonable m uses.
var discounts = func() [64]float64 {
	var d [64]float64
	for r := range d {
		d[r] = 1 / math.Log2(float64(r)+2)
	}
	return d
}()

func discount(r int) float64 {
	if r < len(discounts) {
		return discounts[r]
	}
	return 1 / math.Log2(float64(r)+2)
}

// idealDCG returns DCG(target, E*_m(target)) (Eq. 4) for a segment's
// own result: its explanations need no rectification and their γ over the
// segment is already in the ranked list, so it is a sum of at most m
// terms.
func idealDCG(target *cascading.Result) float64 {
	var sum float64
	for r, p := range target.Explanations {
		sum += p.Gamma * discount(r)
	}
	return sum
}

// side is one segment of an explanation distance: its endpoints, its top
// explanations and their ideal DCG, and obj, the segment's index in the
// object list when it is an object, or −1 when it is the centroid of the
// Weighted call in progress. obj selects the γ memo relevance reads from.
type side struct {
	c, t  int
	res   *cascading.Result
	ideal float64
	obj   int
}

// dist is the explanation distance between segments a and b in the
// direction the calculator's design takes (Eqs. 6, 8, 9 and their squared
// variants). For Dist1/Dist2, a plays the centroid role, matching Eq.
// 8/9. The result lies in [0, 1].
//
//tsexplain:hotpath
func (vc *VarCalc) dist(a, b *side) float64 {
	switch vc.kind {
	case Tse, AllPair:
		nab := vc.ndcg(a, b.res) // b's expl explain a
		nba := vc.ndcg(b, a.res) // a's expl explain b
		return 1 - (nab+nba)/2
	case STse, SAllPair:
		nab := vc.ndcg(a, b.res)
		nba := vc.ndcg(b, a.res)
		return 1 - (nab*nab+nba*nba)/2
	case Dist1:
		// How well the object's explanations explain the centroid (a).
		return 1 - vc.ndcg(a, b.res)
	case SDist1:
		n := vc.ndcg(a, b.res)
		return 1 - n*n
	case Dist2:
		// How well the centroid's explanations explain the object (b).
		return 1 - vc.ndcg(b, a.res)
	case SDist2:
		n := vc.ndcg(b, a.res)
		return 1 - n*n
	default:
		panic("segment: invalid VarianceKind")
	}
}

// ndcg computes NDCG(target, E*_m(source)) (Eq. 5): how well the source
// segment's explanations explain the target segment, from the γ memo. The
// result is clamped to [0, 1]; a target whose own ideal DCG is zero (no
// slice moves at all) is defined to be perfectly explained by anything.
//
//tsexplain:hotpath
func (vc *VarCalc) ndcg(target *side, source *cascading.Result) float64 {
	if target.ideal == 0 {
		return 1
	}
	got := vc.memo.dcg(target, source.Explanations, vc.rectify)
	if got >= target.ideal {
		return 1
	}
	return got / target.ideal
}
