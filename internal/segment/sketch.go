package segment

import "sort"

// SketchConfig controls the sketching optimization (Section 5.3.2).
type SketchConfig struct {
	// MaxSegmentLen is L, the length cap during sketch selection; 0 means
	// the paper's default L = min(⌈0.05n⌉, 20) (at least 2).
	MaxSegmentLen int
	// Size is |S|, the sketch budget; 0 means the paper's default
	// |S| = 3n/L.
	Size int
}

// CoarseObjectsAbove is the series length past which phase 2 of the
// sketching optimization treats sketch intervals, not unit intervals, as
// objects, keeping its variance cost O(|S|³) instead of O(|S|²·n) on long
// series.
const CoarseObjectsAbove = 400

// resolve fills in the paper's defaults for a series of length n.
func (c SketchConfig) resolve(n int) (L, size int) {
	L = c.MaxSegmentLen
	if L <= 0 {
		L = n / 20 // 0.05·n
		if L > 20 {
			L = 20
		}
	}
	if L < 2 {
		L = 2
	}
	size = c.Size
	if size <= 0 {
		size = 3 * n / L
	}
	return L, size
}

// SelectSketch runs phase I of the sketching optimization: it solves a
// length-constrained K-segmentation with K = |S| and every segment at
// most L points long, and returns the resulting cut positions (including
// the two endpoints) as the sketch. Only O(L·n) segments get scored, so
// this is far cheaper than the unconstrained pipeline, while the selected
// points are exactly the boundaries a small-variance segmentation wants
// to cut at.
func SelectSketch(vc *VarCalc, cfg SketchConfig) ([]int, error) {
	n := vc.e.u.NumTimestamps()
	L, size := cfg.resolve(n)
	if size >= n-1 {
		// Sketch as large as the series: keep every position.
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	// Feasibility: K segments of length ≤ L must cover n−1 units.
	minK := (n - 1 + L - 1) / L
	if size < minK {
		size = minK
	}
	res, err := Optimize(vc, Options{KMax: size, MaxSegmentLen: L})
	if err != nil {
		return nil, err
	}
	// The K = size scheme's cuts are the sketch; if it is infeasible
	// (capped KMax < minK cannot happen by construction) fall back to the
	// largest feasible K.
	for k := size; k >= 1; k-- {
		if s, ok := res.Scheme(k); ok {
			cuts := append([]int(nil), s.Cuts...)
			sort.Ints(cuts)
			return cuts, nil
		}
	}
	// No feasible constrained scheme at all: degenerate, keep endpoints.
	return []int{0, n - 1}, nil
}
