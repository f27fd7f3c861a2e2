package segment

import (
	"fmt"
	"math"
)

// Scheme is one K-segmentation scheme P_K: cut positions into the
// aggregated series, always starting at 0 and ending at n−1, so K
// segments need K+1 entries.
type Scheme struct {
	// Cuts holds the segment boundaries c_1 < c_2 < ... < c_{K+1} as point
	// positions (c_1 = 0, c_{K+1} = n−1).
	Cuts []int
	// TotalVariance is the objective value Σ |P_i|·var(P_i).
	TotalVariance float64
}

// DPResult holds the optimal scheme for every K from 1 to KMax, which the
// elbow method consumes: the DP for K = KMax yields all smaller K for
// free (Section 6).
type DPResult struct {
	// ByK[k] is the optimal scheme with exactly k segments (index 0
	// unused). Infeasible k (more segments than candidate positions, or a
	// max-length constraint that cannot be met) have TotalVariance +Inf
	// and nil Cuts.
	ByK []Scheme
}

// Scheme returns the optimal scheme for k segments, or false when k is
// out of range or infeasible.
func (r DPResult) Scheme(k int) (Scheme, bool) {
	if k < 1 || k >= len(r.ByK) || r.ByK[k].Cuts == nil {
		return Scheme{}, false
	}
	return r.ByK[k], true
}

// Options controls the segmentation DP.
type Options struct {
	// KMax is the largest segment count to solve for (default 20, the
	// paper's user-perception cap).
	KMax int
	// Positions restricts cut points to these point positions; it must
	// include 0 and n−1 and be strictly increasing. Nil allows every
	// point (the vanilla pipeline); the sketching optimization passes the
	// sketch here.
	Positions []int
	// MaxSegmentLen bounds the length (in points) of any segment; 0 means
	// unbounded. Sketch selection uses L = min(0.05n, 20).
	MaxSegmentLen int
	// Cancel, when non-nil, is polled between variance evaluations (each
	// may trigger a Cascading Analysts solve); a non-nil return aborts the
	// DP with that error so a request deadline stops the O(q²) solve
	// sweep instead of letting it run to completion.
	Cancel func() error
}

// Optimize solves the K-Segmentation problem (Problem 1) with the dynamic
// program of Eq. 11 over the given variance calculator. It returns the
// optimal scheme for every K in 1..KMax.
//
//tsexplain:cancellable
func Optimize(vc *VarCalc, opts Options) (DPResult, error) {
	n := vc.e.u.NumTimestamps()
	if n < 2 {
		return DPResult{}, fmt.Errorf("segment: series has %d points, need at least 2", n)
	}
	pos := opts.Positions
	if pos == nil {
		pos = make([]int, n)
		for i := range pos {
			pos[i] = i
		}
	}
	if err := validatePositions(pos, n); err != nil {
		return DPResult{}, err
	}
	kmax := opts.KMax
	if kmax <= 0 {
		kmax = 20
	}
	if kmax > len(pos)-1 {
		kmax = len(pos) - 1
	}
	maxLen := opts.MaxSegmentLen

	q := len(pos)
	// Precompute the weighted variances into dense per-endpoint rows so
	// the DP's inner loop reads a slice instead of hitting the cache map
	// K times per pair. wt[i][i-1-j] = |P|·var over [pos[j], pos[i]] for
	// every admissible predecessor j (jlo[i] ≤ j < i).
	cancel := opts.Cancel
	if cancel == nil {
		cancel = func() error { return nil }
	}
	jlo := make([]int, q)
	wt := make([][]float64, q)
	for i := 1; i < q; i++ {
		lo := 0
		if maxLen > 0 {
			for lo < i && pos[i]-pos[lo] > maxLen {
				lo++
			}
		}
		jlo[i] = lo
		row := make([]float64, i-lo)
		for j := i - 1; j >= lo; j-- {
			if err := cancel(); err != nil {
				return DPResult{}, err
			}
			row[i-1-j] = vc.Weighted(pos[j], pos[i])
		}
		wt[i] = row
	}

	// D[k][i]: minimal total variance covering [pos[0], pos[i]] with k
	// segments whose boundaries are all candidate positions.
	inf := math.Inf(1)
	D := make([][]float64, kmax+1)
	par := make([][]int, kmax+1)
	//tsexplain:nopoll O(kmax*q) zero-fill with no variance computations
	for k := 0; k <= kmax; k++ {
		D[k] = make([]float64, q)
		par[k] = make([]int, q)
		for i := range D[k] {
			D[k][i] = inf
			par[k][i] = -1
		}
	}
	for i := 1; i < q; i++ {
		if jlo[i] > 0 {
			continue // first segment cannot reach pos[0] under maxLen
		}
		D[1][i] = wt[i][i-1]
		par[1][i] = 0
	}
	for k := 2; k <= kmax; k++ {
		if err := cancel(); err != nil {
			return DPResult{}, err
		}
		Dprev := D[k-1]
		for i := k; i < q; i++ {
			// The j-sweep below makes each k-round O(q²); poll per row so
			// a cancellation lands within O(q) work instead of O(q²).
			if err := cancel(); err != nil {
				return DPResult{}, err
			}
			best := inf
			arg := -1
			row := wt[i]
			lo := jlo[i]
			if lo < k-1 {
				lo = k - 1
			}
			// Enumerate the last cut position pos[j] (Eq. 11).
			for j := i - 1; j >= lo; j-- {
				dp := Dprev[j]
				if dp == inf {
					continue
				}
				if v := dp + row[i-1-j]; v < best {
					best = v
					arg = j
				}
			}
			D[k][i] = best
			par[k][i] = arg
		}
	}

	res := DPResult{ByK: make([]Scheme, kmax+1)}
	last := q - 1
	//tsexplain:nopoll reconstruction is O(kmax^2) parent-pointer chasing, kmax is a small constant
	for k := 1; k <= kmax; k++ {
		res.ByK[k].TotalVariance = D[k][last]
		if math.IsInf(D[k][last], 1) {
			continue
		}
		cuts := make([]int, k+1)
		i := last
		for kk := k; kk >= 1; kk-- {
			cuts[kk] = pos[i]
			i = par[kk][i]
		}
		cuts[0] = pos[0]
		res.ByK[k].Cuts = cuts
	}
	return res, nil
}

func validatePositions(pos []int, n int) error {
	if len(pos) < 2 {
		return fmt.Errorf("segment: need at least 2 candidate positions, got %d", len(pos))
	}
	if pos[0] != 0 || pos[len(pos)-1] != n-1 {
		return fmt.Errorf("segment: positions must span [0, %d], got [%d, %d]",
			n-1, pos[0], pos[len(pos)-1])
	}
	for i := 1; i < len(pos); i++ {
		if pos[i] <= pos[i-1] {
			return fmt.Errorf("segment: positions not strictly increasing at index %d", i)
		}
		if pos[i] >= n {
			return fmt.Errorf("segment: position %d out of range", pos[i])
		}
	}
	return nil
}
