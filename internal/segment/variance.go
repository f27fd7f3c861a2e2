package segment

import (
	"sort"

	"repro/internal/cascading"
)

// VarCalc computes (and caches) within-segment variances var(P_i) under
// one VarianceKind, following Eq. 7: a segment [a, b] contains the unit
// objects [x, x+1] for a ≤ x < b, its centroid is the segment itself, and
// the variance averages the explanation distance between each object and
// the centroid (or between all object pairs for the AllPair designs).
//
// Four performance structures keep the quantity cheap at scale:
//
//   - Weighted values live in a flat generation-tagged triangle;
//   - the γ memo scores each relevance a distance reads once per target
//     (see gammaMemo);
//   - the AllPair designs build a 2-D prefix-sum table over the unit-pair
//     distance matrix once, making any segment's pair sum O(1);
//   - SetObjectPositions coarsens objects to sketch intervals, the phase-2
//     granularity the sketching optimization uses on long series.
type VarCalc struct {
	e    *Explainer
	kind VarianceKind
	// rectify toggles the opposite-effect rectification inside DCG; the
	// ablation study disables it.
	rectify bool

	// cache holds Weighted per segment [a, b].
	cache *triCache[float64]
	// memo caches the relevance γ(target, id) the distance loop reads.
	memo gammaMemo

	// objPos, when non-nil, replaces unit objects with the intervals
	// between consecutive positions (sketch intervals).
	objPos []int

	// pairPrefix[i*ppStride+j] = Σ_{x ≤ i, y ≤ j} D[x][y] with D the
	// strict upper-triangle pair-distance matrix over unit objects; built
	// on first AllPair use. The table is one flat row-major allocation so
	// rectSum's four probes hit contiguous memory with O(1) indexing and
	// no per-row pointer chase.
	pairPrefix []float64
	ppStride   int

	// Dense per-object caches of top explanations and ideal DCGs, built
	// lazily; objRes[i] covers the i-th object.
	objRes   []*cascading.Result
	objIdeal []float64
}

// NewVarCalc returns a variance calculator over the explainer.
func NewVarCalc(e *Explainer, kind VarianceKind) *VarCalc {
	n := e.u.NumTimestamps()
	return &VarCalc{e: e, kind: kind, rectify: true, cache: newTriCacheCap[float64](n, n)}
}

// SetRectify toggles the rectified-relevance rule (Table 2). It is on by
// default; only the ablation experiment turns it off.
func (vc *VarCalc) SetRectify(on bool) {
	vc.rectify = on
	vc.cache.reset()
	vc.pairPrefix = nil
	vc.objRes, vc.objIdeal = nil, nil
}

// SetObjectPositions coarsens the objects of Eq. 7 from unit segments to
// the intervals between consecutive positions (which must be sorted and
// include both endpoints of the series). The sketching optimization uses
// this in phase 2 on long series: each sketch interval was already deemed
// internally consistent by the constrained phase-1 pass. Passing nil
// restores unit objects.
func (vc *VarCalc) SetObjectPositions(pos []int) {
	if pos == nil {
		vc.objPos = nil
	} else {
		vc.objPos = append([]int(nil), pos...)
		sort.Ints(vc.objPos)
	}
	vc.cache.reset()
	vc.pairPrefix = nil
	vc.objRes, vc.objIdeal = nil, nil
	vc.memo.drop()
}

// HasObjectPositions reports whether the calculator currently coarsens
// objects to sketch intervals.
func (vc *VarCalc) HasObjectPositions() bool { return vc.objPos != nil }

// InvalidateFrom drops every cached quantity that touches a position at
// or after p: weighted variances of segments reaching p, per-object
// caches of objects reaching p, the AllPair prefix table and the γ memo.
// The real-time extension calls this after an append so a VarCalc kept
// across updates recomputes only the changed suffix — variances of
// committed history stay cached.
func (vc *VarCalc) InvalidateFrom(p int) {
	vc.cache.invalidateFrom(p)
	vc.memo.drop()
	for i := range vc.objRes {
		if vc.objRes[i] == nil {
			continue
		}
		end := i + 1
		if vc.objPos != nil {
			end = vc.objPos[i+1]
		}
		if end >= p {
			vc.objRes[i] = nil
			vc.objIdeal[i] = 0
		}
	}
	vc.pairPrefix = nil
}

// Bytes is the heap footprint of what the calculator keeps across
// explains: the Weighted cache, the γ memo, the AllPair prefix table and
// the per-object caches.
func (vc *VarCalc) Bytes() int64 {
	return vc.cache.bytes(8) + vc.memo.bytes() +
		8*int64(cap(vc.pairPrefix)) + 16*int64(cap(vc.objRes)) + 8*int64(len(vc.objPos))
}

// objectRange returns the objects covering [a, b] as the index range
// [lo, hi) of the object list: with unit objects those are a..b−1; with
// coarsened objects, the intervals between the positions in [a, b].
func (vc *VarCalc) objectRange(a, b int) (lo, hi int) {
	if vc.objPos == nil {
		return a, b
	}
	lo = sort.SearchInts(vc.objPos, a)
	end := sort.SearchInts(vc.objPos, b)
	if end < len(vc.objPos) && vc.objPos[end] == b {
		end++
	}
	return lo, max(lo, end-1)
}

// objectSide returns object oi (an index into the object list) as a side
// of a distance. Its top explanations and ideal DCG are fetched once per
// object and kept in the dense per-object caches.
func (vc *VarCalc) objectSide(oi int) side {
	oc, ot := oi, oi+1
	if vc.objPos != nil {
		oc, ot = vc.objPos[oi], vc.objPos[oi+1]
	}
	if oi >= len(vc.objRes) {
		vc.growObjects()
	}
	r := vc.objRes[oi]
	if r == nil {
		r = vc.e.TopM(oc, ot)
		vc.objRes[oi], vc.objIdeal[oi] = r, idealDCG(r)
	}
	return side{c: oc, t: ot, res: r, ideal: vc.objIdeal[oi], obj: oi}
}

// objectCount is the length of the object list.
func (vc *VarCalc) objectCount() int {
	if vc.objPos != nil {
		return len(vc.objPos) - 1
	}
	return vc.e.u.NumTimestamps() - 1
}

// growObjects sizes the per-object caches to the current object list,
// keeping their prefix: the series grew since they were built (a
// streaming append).
func (vc *VarCalc) growObjects() {
	count := vc.objectCount()
	vc.objRes = append(vc.objRes, make([]*cascading.Result, count-len(vc.objRes))...)
	vc.objIdeal = append(vc.objIdeal, make([]float64, count-len(vc.objIdeal))...)
}

// prepareMemo readies the γ memo for the current universe and object
// list, emptying it when either changed since it was filled.
func (vc *VarCalc) prepareMemo() {
	u, objs := vc.e.u, vc.objectCount()
	if !vc.memo.valid(u, objs) {
		vc.memo.reset(u, objs, u.NumTimestamps())
	}
}

// Weighted returns |P|·var(P), the quantity the segmentation objective
// (Problem 1) sums, where |P| = b − a counts unit objects (so objectives
// stay comparable across object granularities).
//
//tsexplain:hotpath
func (vc *VarCalc) Weighted(a, b int) float64 {
	if b-a <= 1 {
		return 0 // a single object is its own centroid
	}
	if v := vc.cache.get(a, b); v != nil {
		return *v
	}
	vc.prepareMemo()
	var total float64
	switch vc.kind {
	case AllPair, SAllPair:
		total = vc.weightedAllPair(a, b)
	default:
		// Centroid designs: average dist(centroid, object) over objects,
		// weighted by |P|. The centroid plays the first-argument role
		// (Eq. 8/9 direction). The centroid's explanations and every
		// object's are fetched once, so the loop is map-free.
		cRes := vc.e.TopM(a, b)
		cen := side{c: a, t: b, res: cRes, ideal: idealDCG(cRes), obj: -1}
		vc.memo.center()
		lo, hi := vc.objectRange(a, b)
		var sum float64
		for oi := lo; oi < hi; oi++ {
			o := vc.objectSide(oi)
			sum += vc.dist(&cen, &o)
		}
		if hi > lo {
			total = float64(b-a) * sum / float64(hi-lo)
		}
	}
	// A streaming append may have grown the series since the last put.
	vc.cache = vc.cache.resize(vc.e.u.NumTimestamps())
	vc.cache.put(a, b, total)
	return total
}

// weightedAllPair computes the AllPair designs. With unit objects it
// answers from the prefix-sum table in O(1); with coarsened objects the
// pair count is small enough to iterate directly.
//
//tsexplain:hotpath
func (vc *VarCalc) weightedAllPair(a, b int) float64 {
	if vc.objPos != nil {
		lo, hi := vc.objectRange(a, b)
		var sum float64
		var pairs int
		for i := lo; i < hi; i++ {
			oi := vc.objectSide(i)
			for j := i + 1; j < hi; j++ {
				oj := vc.objectSide(j)
				sum += vc.dist(&oi, &oj)
				pairs++
			}
		}
		if pairs == 0 {
			return 0
		}
		return float64(b-a) * sum / float64(pairs)
	}
	vc.buildPairPrefix()
	// Pair sum over a ≤ x < y < b via the 2-D prefix rectangle
	// [a..b-2] × [a..b-1]; entries on/below the diagonal are zero.
	sum := vc.rectSum(a, b-2, a, b-1)
	objs := b - a
	pairs := objs * (objs - 1) / 2
	if pairs == 0 {
		return 0
	}
	return float64(objs) * sum / float64(pairs)
}

// buildPairPrefix materializes the unit-pair distance matrix and its 2-D
// prefix sums, O(n²) once, into one flat row-major table.
func (vc *VarCalc) buildPairPrefix() {
	if vc.pairPrefix != nil {
		return
	}
	n := vc.e.u.NumTimestamps()
	objs := n - 1
	pp := make([]float64, objs*objs)
	for x := 0; x < objs; x++ {
		row := pp[x*objs : (x+1)*objs]
		xs := vc.objectSide(x)
		for y := x + 1; y < objs; y++ {
			ys := vc.objectSide(y)
			row[y] = vc.dist(&xs, &ys)
		}
	}
	// In-place 2-D prefix sums. The accumulation order (up, then left,
	// minus diagonal) is kept exactly as the nested-slice implementation
	// had it so every prefix value — and every variance derived from one —
	// stays bit-identical to the committed golden corpus.
	for x := 0; x < objs; x++ {
		row := pp[x*objs : (x+1)*objs]
		if x == 0 {
			for y := 1; y < objs; y++ {
				row[y] += row[y-1]
			}
			continue
		}
		prev := pp[(x-1)*objs : x*objs]
		row[0] += prev[0]
		for y := 1; y < objs; y++ {
			row[y] = row[y] + prev[y] + row[y-1] - prev[y-1]
		}
	}
	vc.pairPrefix = pp
	vc.ppStride = objs
}

// rectSum returns Σ D[x][y] over x in [x0, x1], y in [y0, y1].
//
//tsexplain:hotpath
func (vc *VarCalc) rectSum(x0, x1, y0, y1 int) float64 {
	if x1 < x0 || y1 < y0 {
		return 0
	}
	pp, s := vc.pairPrefix, vc.ppStride
	v := pp[x1*s+y1]
	if x0 > 0 {
		v -= pp[(x0-1)*s+y1]
	}
	if y0 > 0 {
		v -= pp[x1*s+y0-1]
	}
	if x0 > 0 && y0 > 0 {
		v += pp[(x0-1)*s+y0-1]
	}
	return v
}

// TotalVariance evaluates the segmentation objective Σ |P_i|·var(P_i)
// (Problem 1) for the cut positions cuts, which must start at 0 and end
// at n−1.
func (vc *VarCalc) TotalVariance(cuts []int) float64 {
	var total float64
	for i := 1; i < len(cuts); i++ {
		total += vc.Weighted(cuts[i-1], cuts[i])
	}
	return total
}
